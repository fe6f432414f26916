// Package engine is a deterministic parallel trial scheduler for the
// experiment runners in the root package, and holds the module's one memo.
//
// Every §8 experiment is a grid of independent trials: an outer sweep over
// operating points (an SNR, a cyclic-prefix value, a random placement) and
// an inner loop of trials per point. The engine fans those trials out
// across a worker pool while keeping the output bit-identical to a serial
// run:
//
//   - Each trial receives its own *rand.Rand seeded by a splitmix64-style
//     hash of (base seed, point index, trial index) — see TrialSeed. No RNG
//     state is shared between trials, so the random stream a trial consumes
//     does not depend on which worker ran it, on scheduling order, or on
//     the worker count. Sub-runs inside a trial take their own streams
//     through ChildRNG, one draw from the trial stream each.
//   - Results land in a slice indexed by (point, trial), so reductions see
//     trial order, never completion order. Floating-point accumulation in
//     the callers therefore sums in a fixed order too.
//
// The zero Config runs with seed 0 and a full-width pool: Workers <= 0
// selects one worker per logical CPU (GOMAXPROCS). Workers == 1 forces the
// serial path, which runs the trial function inline on the calling
// goroutine.
//
// Grid schedules the points x trials cross product on one shared pool; a
// single operating point is a one-point grid. The repository's
// determinism contract — every experiment's stdout byte-identical at every
// worker count, enforced by CI — is documented in docs/ARCHITECTURE.md.
//
// Memo is the module's one process-wide cache of pure values, shared by
// every trial, worker and job: a package outside the engine that memoizes
// a value needs no concurrency of its own.
package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config is a run's context: the base seed, the degree of parallelism and
// an optional Monitor. Every experiment runner in the root package takes
// one as its first argument.
type Config struct {
	Seed    int64
	Workers int // <= 0: GOMAXPROCS, 1: serial, n: exactly n workers
	// Monitor, when non-nil, observes the run: it accumulates trial
	// progress across every Grid call that carries it and lets an
	// external owner (e.g. a ssserve job) request cooperative
	// cancellation. A nil Monitor costs nothing.
	Monitor *Monitor
}

// Monitor is a shared observation/cancellation handle for one experiment
// run. The engine adds every scheduled trial to Total and ticks Done as
// trials complete; Cancel makes workers stop picking up new trials. A
// canceled run returns partial results (unrun trials stay zero values), so
// the caller that canceled must discard the run's output — partial output
// is outside the determinism contract. A completed, never-canceled run is
// unaffected by the Monitor: progress counters are observability only and
// never feed back into trial scheduling or RNG derivation.
type Monitor struct {
	total atomic.Int64
	done  atomic.Int64
	stop  atomic.Bool
}

// Cancel asks every engine run carrying this Monitor to stop scheduling
// new trials. In-flight trials run to completion; Cancel never blocks.
func (m *Monitor) Cancel() { m.stop.Store(true) }

// Canceled reports whether Cancel has been called.
func (m *Monitor) Canceled() bool { return m.stop.Load() }

// Progress returns trials completed and trials scheduled so far. Total
// grows as an experiment's successive Grid stages start, so done/total
// is a monotone underestimate of overall completion until the last stage.
func (m *Monitor) Progress() (done, total int64) {
	// Read done first: total only grows, so a racing stage start can make
	// the ratio conservative but never above 1.
	return m.done.Load(), m.total.Load()
}

// WorkerCount resolves a Workers setting to the actual pool size: values
// above zero are taken literally, anything else means one worker per CPU.
// Exported so callers reporting parallelism (e.g. ssbench's wall-clock
// summary) stay in sync with what the engine really uses.
func WorkerCount(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// splitmix64 is the finalizer of the SplitMix64 generator (Steele et al.,
// "Fast splittable pseudorandom number generators"): an invertible
// avalanche mix, so distinct inputs give statistically independent outputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TrialSeed derives the RNG seed for one trial from the experiment's base
// seed, the operating-point index, and the trial index within that point.
// The three values are chained through splitmix64 so that neighboring
// (point, trial) pairs produce unrelated streams.
func TrialSeed(seed int64, point, trial int) int64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(int64(point)))
	h = splitmix64(h ^ uint64(int64(trial)))
	return int64(h)
}

// TrialRNG returns a fresh rand.Rand for one trial, seeded by TrialSeed.
func TrialRNG(seed int64, point, trial int) *rand.Rand {
	return rand.New(rand.NewSource(TrialSeed(seed, point, trial))) //sslint:allow detrand TrialSeed is the sanctioned derivation: a pure splitmix64 function of (seed, point, trial)
}

// ChildRNG returns a fresh rand.Rand seeded by one Int63 draw from parent:
// the one bridge from a trial's stream to an independent sub-run (a
// serving scheme, a routing protocol, one AP alone). The parent draw is
// part of the caller's contracted draw order, so call sites bridge in a
// fixed order.
func ChildRNG(parent *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(parent.Int63())) //sslint:allow detrand the sanctioned child-stream bridge: the seed is the parent stream's next draw, part of the contracted draw order
}

// PointRNG returns a rand.Rand scoped to a whole operating point (trial
// index -1), for values every trial of the point must agree on — e.g. a
// placement's SNR draw shared by all its frames.
func PointRNG(seed int64, point int) *rand.Rand {
	return TrialRNG(seed, point, -1)
}

// run executes fn(0..n-1) across the given number of workers. Tasks are
// handed out through an atomic counter, so long trials do not serialize
// behind a fixed pre-partition. A non-nil Monitor sees every scheduled
// trial in Total and every completed one in Done, and its Cancel stops
// further pickups (already-started trials finish). A trial that panics
// stops further pickups too: once the pool drains, the first panic value
// is re-raised on the calling goroutine, as the serial path raises it, so
// a caller's recover sees it instead of the process dying in a worker.
func run(workers, n int, m *Monitor, fn func(i int)) {
	if n <= 0 {
		return
	}
	if m != nil {
		m.total.Add(int64(n))
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if m != nil && m.Canceled() {
				return
			}
			fn(i)
			if m != nil {
				m.done.Add(1)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var failure atomic.Pointer[any] // the first trial panic's value
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					failure.CompareAndSwap(nil, &p)
				}
			}()
			for {
				if failure.Load() != nil || (m != nil && m.Canceled()) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
				if m != nil {
					m.done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if p := failure.Load(); p != nil {
		panic(*p)
	}
}

// Grid runs the full points x trials cross product and returns results as
// out[point][trial]. Each trial gets an independent RNG from
// TrialRNG(c.Seed, point, trial), so the output is identical for every
// worker count. All points' trials share one worker pool, so a sweep with
// few trials per point still saturates the machine.
func Grid[T any](c Config, points, trials int, fn func(point, trial int, rng *rand.Rand) T) [][]T {
	out := make([][]T, points)
	for p := range out {
		out[p] = make([]T, trials)
	}
	run(WorkerCount(c.Workers), points*trials, c.Monitor, func(i int) {
		p, t := i/trials, i%trials
		out[p][t] = fn(p, t, TrialRNG(c.Seed, p, t))
	})
	return out
}
