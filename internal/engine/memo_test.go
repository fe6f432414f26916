package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// First lookups racing on every key build each key once, and every
// goroutine reads the one value built. The goroutines take the keys in
// rounds, and each build holds the memo's mutex until all goroutines have
// come for its key, so the others miss and queue behind it; a miss that
// did not look again under the mutex would build the key a second time.
func TestMemoBuildsEachKeyOnce(t *testing.T) {
	const goroutines, keys = 8, 10
	var m Memo[int, *int]
	var builds, arrived [keys]atomic.Int32
	build := func(k int) *int {
		builds[k].Add(1)
		for arrived[k].Load() < goroutines {
			runtime.Gosched()
		}
		for range 100 {
			runtime.Gosched()
		}
		v := k
		return &v
	}
	// read[k] waits for every goroutine to have read key k, so no
	// goroutine still queues on the mutex for key k when round k+1 starts.
	var read [keys]sync.WaitGroup
	for k := range read {
		read[k].Add(goroutines)
	}
	got := make([][keys]*int, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := range goroutines {
		go func() {
			defer wg.Done()
			for k := range keys {
				if k > 0 {
					read[k-1].Wait()
				}
				arrived[k].Add(1)
				got[g][k] = m.Get(k, build)
				read[k].Done()
			}
		}()
	}
	wg.Wait()
	for k := range keys {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want once", k, n)
		}
		for g := range got {
			if got[g][k] != got[0][k] || *got[g][k] != k {
				t.Errorf("goroutine %d read key %d as %p (%d), goroutine 0 as %p", g, k, got[g][k], *got[g][k], got[0][k])
			}
		}
	}
}

// A build that panics passes the panic to its caller, leaves its key
// unbuilt and releases the mutex, so a later Get builds the key.
func TestMemoPanickingBuildLeavesKeyUnbuilt(t *testing.T) {
	var m Memo[string, int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build's panic did not reach Get's caller")
			}
		}()
		m.Get("k", func(string) int { panic("build failed") })
	}()
	if n := m.size(); n != 0 {
		t.Fatalf("a panicking build left %d keys built, want 0", n)
	}
	if v := m.Get("k", func(string) int { return 7 }); v != 7 {
		t.Fatalf("Get after a panicking build = %d, want 7", v)
	}
}

type memoKey struct {
	profile string
	payload int
}

var memoSink []float64

func buildMemoValue(memoKey) []float64 { return make([]float64, 8) }

// A lookup of a built key allocates nothing.
func TestMemoHitAllocatesNothing(t *testing.T) {
	var m Memo[memoKey, []float64]
	key := memoKey{"802.11a-20MHz", 1460}
	m.Get(key, buildMemoValue)
	if allocs := testing.AllocsPerRun(100, func() { memoSink = m.Get(key, buildMemoValue) }); allocs != 0 {
		t.Fatalf("a hit allocated %.1f times, want 0", allocs)
	}
}

var sizedMemo = NewMemo[int, int]("engine.test_sized")

// MemoSizes counts each registered memo's built keys, hits adding
// nothing, and a name registers once.
func TestMemoSizesCountsBuiltKeysByName(t *testing.T) {
	square := func(k int) int { return k * k }
	for k := range 3 {
		sizedMemo.Get(k, square)
	}
	sizedMemo.Get(1, square)
	if n := MemoSizes()["engine.test_sized"]; n != 3 {
		t.Fatalf(`MemoSizes()["engine.test_sized"] = %d, want 3`, n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a memo name twice did not panic")
		}
	}()
	NewMemo[int, int]("engine.test_sized")
}
