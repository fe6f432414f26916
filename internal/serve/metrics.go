package serve

import (
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/engine"
)

// metrics aggregates the service counters behind GET /metrics. Rendering
// is Prometheus-style text: one `name{labels} value` line per series, so
// any scraper (or a human with curl) can read the job mix, the
// per-experiment latency profile, the output cache's hit rate, and how
// many keys each process-wide engine memo has built.
type metrics struct {
	mu          sync.Mutex
	submitted   uint64
	rejected    uint64
	cacheHits   uint64
	cacheMisses uint64
	running     int64
	finishedBy  map[State]uint64
	perExp      map[string]*expLatency
}

// expLatency is one experiment's completed-run latency aggregate.
type expLatency struct {
	runs     uint64
	totalSec float64
	maxSec   float64
}

func (m *metrics) init() {
	m.finishedBy = map[State]uint64{}
	m.perExp = map[string]*expLatency{}
}

// submit records one accepted submission and its cache-lookup outcome.
func (m *metrics) submit(cacheHit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted++
	if cacheHit {
		m.cacheHits++
	} else {
		m.cacheMisses++
	}
}

// reject records a submit bounced off the full queue.
func (m *metrics) reject() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected++
}

// runningDelta tracks the live running-job gauge.
func (m *metrics) runningDelta(delta int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running += delta
}

// finished records a terminal transition; completed runs also feed the
// per-experiment latency aggregate.
func (m *metrics) finished(experiment string, state State, ranFor time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finishedBy[state]++
	if state != StateDone {
		return
	}
	e := m.perExp[experiment]
	if e == nil {
		e = &expLatency{}
		m.perExp[experiment] = e
	}
	sec := ranFor.Seconds()
	e.runs++
	e.totalSec += sec
	if sec > e.maxSec {
		e.maxSec = sec
	}
}

// render writes the metrics page. queued is the current queue depth (the
// server reads its channel length at render time).
func (m *metrics) render(w io.Writer, queued int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "ssserve_jobs_submitted_total %d\n", m.submitted)
	fmt.Fprintf(w, "ssserve_jobs_rejected_total %d\n", m.rejected)
	fmt.Fprintf(w, "ssserve_jobs_queued %d\n", queued)
	fmt.Fprintf(w, "ssserve_jobs_running %d\n", m.running)
	for _, st := range []State{StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "ssserve_jobs_finished_total{state=%q} %d\n", string(st), m.finishedBy[st])
	}
	fmt.Fprintf(w, "ssserve_output_cache_hits_total %d\n", m.cacheHits)
	fmt.Fprintf(w, "ssserve_output_cache_misses_total %d\n", m.cacheMisses)
	memos := engine.MemoSizes()
	for _, name := range slices.Sorted(maps.Keys(memos)) {
		fmt.Fprintf(w, "ssserve_memo_entries{memo=%q} %d\n", name, memos[name])
	}
	for _, exp := range slices.Sorted(maps.Keys(m.perExp)) {
		e := m.perExp[exp]
		fmt.Fprintf(w, "ssserve_experiment_runs_total{experiment=%q} %d\n", exp, e.runs)
		fmt.Fprintf(w, "ssserve_experiment_run_seconds_sum{experiment=%q} %.6f\n", exp, e.totalSec)
		fmt.Fprintf(w, "ssserve_experiment_run_seconds_max{experiment=%q} %.6f\n", exp, e.maxSec)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "ssserve_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "ssserve_heap_alloc_bytes %d\n", ms.HeapAlloc)
}
