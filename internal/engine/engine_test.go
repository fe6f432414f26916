package engine

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestTrialSeedStableAndDistinct(t *testing.T) {
	if TrialSeed(1, 0, 0) != TrialSeed(1, 0, 0) {
		t.Fatal("TrialSeed not deterministic")
	}
	seen := map[int64]bool{}
	for seed := int64(0); seed < 3; seed++ {
		for p := 0; p < 20; p++ {
			for tr := -1; tr < 20; tr++ {
				s := TrialSeed(seed, p, tr)
				if seen[s] {
					t.Fatalf("collision at seed=%d point=%d trial=%d", seed, p, tr)
				}
				seen[s] = true
			}
		}
	}
}

func TestPointRNGIndependentOfTrial(t *testing.T) {
	if PointRNG(7, 3).Int63() != PointRNG(7, 3).Int63() {
		t.Fatal("PointRNG not reproducible")
	}
	if PointRNG(7, 3).Int63() == TrialRNG(7, 3, 0).Int63() {
		t.Fatal("PointRNG collides with trial 0's stream")
	}
}

func TestGridOrderAndWorkerIndependence(t *testing.T) {
	// A one-point grid hands trial t the stream TrialRNG(seed, 0, t) and
	// returns the results in trial order at every worker count.
	fn := func(_, trial int, rng *rand.Rand) float64 {
		return float64(trial) + rng.Float64()
	}
	for _, workers := range []int{1, 2, 4, 7, runtime.GOMAXPROCS(0)} {
		got := Grid(Config{Seed: 42, Workers: workers}, 1, 100, fn)
		if len(got) != 1 || len(got[0]) != 100 {
			t.Fatalf("workers=%d: %d points", workers, len(got))
		}
		for trial, v := range got[0] {
			if want := fn(0, trial, TrialRNG(42, 0, trial)); v != want {
				t.Fatalf("workers=%d: result %d = %v, want %v", workers, trial, v, want)
			}
		}
	}
}

func TestGridShapeAndDeterminism(t *testing.T) {
	fn := func(p, tr int, rng *rand.Rand) int64 {
		return int64(p*1000+tr) ^ rng.Int63()
	}
	mk := func(workers int) [][]int64 {
		return Grid(Config{Seed: 9, Workers: workers}, 7, 13, fn)
	}
	serial := mk(1)
	if len(serial) != 7 || len(serial[0]) != 13 {
		t.Fatalf("grid shape %dx%d", len(serial), len(serial[0]))
	}
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		got := mk(workers)
		for p := range serial {
			for tr := range serial[p] {
				if got[p][tr] != serial[p][tr] {
					t.Fatalf("workers=%d: [%d][%d] differs", workers, p, tr)
				}
			}
		}
	}
}

func TestMonitorProgressAndIdenticalResults(t *testing.T) {
	fn := func(_, trial int, rng *rand.Rand) float64 { return float64(trial) + rng.Float64() }
	want := Grid(Config{Seed: 5, Workers: 1}, 1, 40, fn)[0]
	for _, workers := range []int{1, 4} {
		m := &Monitor{}
		got := Grid(Config{Seed: 5, Workers: workers, Monitor: m}, 1, 40, fn)[0]
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: monitored result %d differs from unmonitored", workers, i)
			}
		}
		done, total := m.Progress()
		if done != 40 || total != 40 {
			t.Fatalf("workers=%d: progress %d/%d, want 40/40", workers, done, total)
		}
	}
	// Totals accumulate across successive stages sharing one Monitor, each
	// adding its points x trials.
	m := &Monitor{}
	Grid(Config{Seed: 5, Monitor: m}, 1, 10, fn)
	Grid(Config{Seed: 5, Monitor: m}, 3, 5, fn)
	if done, total := m.Progress(); done != 25 || total != 25 {
		t.Fatalf("two-stage progress %d/%d, want 25/25", done, total)
	}
}

func TestMonitorCancelStopsScheduling(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := &Monitor{}
		ran := make([]atomic.Bool, 200)
		// Trials after 3 wait until trial 3 has canceled, so the other
		// workers cannot drain every trial while trial 3's worker sits
		// descheduled before its Cancel. Trials are handed out in index
		// order, so trial 3 is already running when any later one waits.
		canceled := make(chan struct{})
		Grid(Config{Seed: 5, Workers: workers, Monitor: m}, 1, len(ran), func(_, trial int, rng *rand.Rand) int {
			ran[trial].Store(true)
			if trial == 3 {
				m.Cancel()
				close(canceled)
			}
			if trial > 3 {
				<-canceled
			}
			return trial
		})
		if !m.Canceled() {
			t.Fatalf("workers=%d: monitor should report canceled", workers)
		}
		count := 0
		for i := range ran {
			if ran[i].Load() {
				count++
			}
		}
		// In-flight trials may finish after Cancel, but the bulk of the
		// 200 must never have been scheduled.
		if count > 20+workers {
			t.Fatalf("workers=%d: %d trials ran after an early cancel", workers, count)
		}
		if done, total := m.Progress(); total != 200 || done < 1 || done > int64(count) {
			t.Fatalf("workers=%d: progress %d/%d after cancel (%d ran)", workers, done, total, count)
		}
	}
}

func TestTrialPanicSurfacesOnCaller(t *testing.T) {
	// A panicking trial must not kill the process from inside a worker
	// goroutine: the pool stops and the caller sees the trial's own panic
	// value, on the serial path and the parallel one alike.
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if p := recover(); p != "trial 7 failed" {
					t.Errorf("workers=%d: recovered %v, want the trial's panic value", workers, p)
				}
			}()
			Grid(Config{Seed: 5, Workers: workers}, 1, 100, func(_, trial int, _ *rand.Rand) int {
				if trial == 7 {
					panic("trial 7 failed")
				}
				return trial
			})
			t.Errorf("workers=%d: Grid returned after a trial panicked", workers)
		}()
	}
}

func TestRunHandlesEmptyAndSmall(t *testing.T) {
	one := func(int, int, *rand.Rand) int { return 1 }
	if got := Grid(Config{}, 1, 0, one); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("n=0 should return one empty point, got %v", got)
	}
	if got := Grid(Config{}, 0, 5, one); len(got) != 0 {
		t.Fatalf("zero points should return empty, got %v", got)
	}
	// More workers than tasks must not deadlock or drop tasks.
	got := Grid(Config{Workers: 64}, 1, 3, func(_, trial int, _ *rand.Rand) int { return trial })[0]
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("small grid: %v", got)
	}
}
