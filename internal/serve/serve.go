// Package serve is the long-running simulation job service behind
// cmd/ssserve: experiment jobs arrive over an HTTP/JSON API, run on the
// deterministic internal/engine worker pool, and produce output
// byte-identical to a batch `ssbench` run of the same spec — at any
// worker count and under arbitrary job interleaving. That byte-identity
// is the repo's determinism contract lifted to service scale, and it is
// what makes the output cache sound: a completed job's bytes are a pure
// function of its spec (minus workers/timeout), so identical re-submits
// are served from memory.
//
// Concurrency discipline: this package is, alongside internal/engine, the
// only code sanctioned to use goroutines, channels, select, and sync
// primitives (enforced by sslint's detgoroutine). Nothing here may leak
// scheduling order into job output — jobs render through
// internal/experiments into private buffers, and every shared structure
// (job table, cache, metrics) is observability or transport, never
// simulation state. Wall-clock reads are confined to clock.go.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// Config sizes the service.
type Config struct {
	// MaxRunning is the number of jobs executing concurrently (the job
	// queue's consumer pool). 0 means GOMAXPROCS. Each running job
	// additionally fans its trials across Spec.Workers engine workers.
	MaxRunning int
	// MaxQueue bounds jobs accepted but not yet running; a submit beyond
	// it is rejected with ErrQueueFull (HTTP 503). 0 means 64.
	MaxQueue int
	// JobTimeout caps a job's run time when its spec does not set one.
	// 0 means 15 minutes; negative means no default timeout.
	JobTimeout time.Duration
	// CacheEntries bounds the completed-output cache (FIFO eviction).
	// 0 means 256; negative disables caching entirely.
	CacheEntries int
	// MaxJobs bounds the job table: once more than MaxJobs jobs have
	// reached a terminal state, the oldest terminal jobs — and the output
	// bytes they pin — are evicted, so a long-lived daemon's memory does
	// not grow with every job ever submitted. Queued and running jobs are
	// never evicted; an evicted ID turns into 404 on the job routes.
	// 0 means 4096; negative retains every job forever.
	MaxJobs int

	// runFn renders one experiment; tests substitute a controllable fake.
	// nil means experiments.Run.
	runFn func(buf *bytes.Buffer, name string, p experiments.Params) error
}

// withDefaults resolves the zero values documented on Config.
func (c Config) withDefaults() Config {
	if c.MaxRunning <= 0 {
		c.MaxRunning = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 15 * time.Minute
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 4096
	}
	if c.runFn == nil {
		c.runFn = func(buf *bytes.Buffer, name string, p experiments.Params) error {
			return experiments.Run(buf, name, p)
		}
	}
	return c
}

// ErrQueueFull rejects a submit when the bounded job queue is at capacity.
var ErrQueueFull = errors.New("job queue is full")

// ErrClosed rejects submits after Close.
var ErrClosed = errors.New("server is shut down")

// Server owns the job table, the bounded queue, the runner pool, and the
// output cache. Create with New, expose with Handler, stop with Close.
type Server struct {
	cfg   Config
	queue chan *Job
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	nextID int
	jobs   map[string]*Job
	order  []string // submission order, for GET /jobs
	doneQ  []string // terminal jobs in settlement order, for MaxJobs eviction
	cache  map[string][]byte
	cacheQ []string // FIFO eviction order

	metrics metrics
}

// New starts a Server: cfg.MaxRunning runner goroutines consuming a
// cfg.MaxQueue-deep job queue.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		queue: make(chan *Job, cfg.MaxQueue),
		jobs:  map[string]*Job{},
		cache: map[string][]byte{},
	}
	s.metrics.init()
	s.wg.Add(cfg.MaxRunning)
	for i := 0; i < cfg.MaxRunning; i++ {
		go s.runner()
	}
	return s
}

// Close stops accepting jobs, cancels everything queued or running, and
// waits for the runner pool to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	for _, id := range ids {
		s.Cancel(id)
	}
	close(s.queue)
	s.wg.Wait()
}

// Submit validates and enqueues one job. A spec whose output is already
// cached completes instantly without consuming a queue slot or worker.
func (s *Server) Submit(spec Spec) (*Job, error) {
	norm, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	job := &Job{
		Spec:      norm,
		monitor:   &engine.Monitor{},
		state:     StateQueued,
		submitted: now(),
		done:      make(chan struct{}),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	cached, hit := s.cache[norm.Key()]
	if !hit {
		// Reserve the queue slot before the job enters the table, while
		// still holding s.mu. A rejected submit then needs no rollback (a
		// rollback after re-acquiring the lock could race a concurrent
		// submit and drop the wrong entry from s.order), and the
		// non-blocking send is ordered against Close — which sets closed
		// under this same lock before closing the channel — so it can
		// never hit a closed queue.
		select {
		case s.queue <- job:
		default:
			s.mu.Unlock()
			s.metrics.reject()
			return nil, ErrQueueFull
		}
	}
	s.nextID++
	job.ID = fmt.Sprintf("j%d", s.nextID)
	if hit {
		job.state = StateDone
		job.output = cached
		job.cacheHit = true
		job.finished = job.submitted
		close(job.done)
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	if hit {
		s.retireLocked(job.ID)
	}
	s.mu.Unlock()

	s.metrics.submit(hit)
	return job, nil
}

// retireLocked records that a job reached a terminal state and evicts
// the oldest terminal jobs beyond cfg.MaxJobs, bounding the job table
// (and the output bytes it pins) the same way cacheQ bounds the output
// cache. Queued and running jobs never enter doneQ, so they are never
// evicted. The caller holds s.mu.
func (s *Server) retireLocked(id string) {
	if s.cfg.MaxJobs <= 0 {
		return
	}
	s.doneQ = append(s.doneQ, id)
	for len(s.doneQ) > s.cfg.MaxJobs {
		old := s.doneQ[0]
		s.doneQ = s.doneQ[1:]
		delete(s.jobs, old)
		if i := slices.Index(s.order, old); i >= 0 {
			s.order = slices.Delete(s.order, i, i+1)
		}
	}
}

// Get returns a job by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel requests cooperative cancellation of a job. A queued job is
// canceled immediately; a running one stops at the engine's next trial
// boundary (or the experiment's next stage boundary) and its partial
// output is discarded. Terminal jobs are left untouched.
func (s *Server) Cancel(id string) (*Job, bool) {
	j, ok := s.Get(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	j.cancelReq = true
	j.monitor.Cancel()
	settled := false
	if j.state == StateQueued {
		// The runner will skip it when it pops; settle it now so clients
		// see the terminal state immediately.
		j.state = StateCanceled
		j.errMsg = "canceled while queued"
		j.finished = now()
		j.queuedFor = j.finished.Sub(j.submitted)
		close(j.done)
		settled = true
	}
	j.mu.Unlock()
	if settled {
		s.mu.Lock()
		s.retireLocked(j.ID)
		s.mu.Unlock()
		s.metrics.finished(j.Spec.Experiment, StateCanceled, 0)
	}
	return j, true
}

// runner consumes the job queue until Close.
func (s *Server) runner() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runResult is what a job's render goroutine hands back to its runner.
type runResult struct {
	out []byte
	err error
}

// runJob executes one dequeued job: spawn the render, enforce the
// timeout, settle the terminal state, and feed the cache and metrics.
func (s *Server) runJob(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued {
		// Canceled while queued; already settled.
		job.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.started = now()
	job.queuedFor = job.started.Sub(job.submitted)
	job.mu.Unlock()
	s.metrics.runningDelta(+1)
	defer s.metrics.runningDelta(-1)

	timeout := s.cfg.JobTimeout
	if job.Spec.TimeoutSec > 0 {
		timeout = time.Duration(job.Spec.TimeoutSec * float64(time.Second))
	}

	resCh := make(chan runResult, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				resCh <- runResult{err: fmt.Errorf("experiment panicked: %v", p)}
			}
		}()
		var buf bytes.Buffer
		err := s.cfg.runFn(&buf, job.Spec.Experiment, job.Spec.params(job.monitor))
		resCh <- runResult{out: buf.Bytes(), err: err}
	}()

	var res runResult
	if timeout > 0 {
		tm := newTimer(timeout)
		select {
		case res = <-resCh:
			tm.Stop()
		case <-tm.C:
			// Cooperative cancellation: the engine stops scheduling new
			// trials; we still wait for in-flight trials to finish so the
			// render goroutine never outlives its job.
			job.mu.Lock()
			job.timedOut = true
			job.mu.Unlock()
			job.monitor.Cancel()
			res = <-resCh
		}
	} else {
		res = <-resCh
	}
	s.settle(job, res, timeout)
}

// settle moves a finished run into its terminal state. It decides the
// verdict first, then feeds the cache, retires the job and counts the
// finished metric, and only then publishes the state and output and
// closes done: a client woken by Done sees every effect of the job (a
// resubmit of its spec hits the cache; the metrics page counts it).
func (s *Server) settle(job *Job, res runResult, timeout time.Duration) {
	job.mu.Lock()
	finished := now()
	ranFor := finished.Sub(job.started)
	var state State
	var errMsg string
	switch {
	case job.timedOut:
		state = StateFailed
		errMsg = fmt.Sprintf("timed out after %s (partial output discarded)", timeout)
	case job.cancelReq:
		// Whether the render noticed (ErrCanceled) or finished first, the
		// client asked for cancellation: discard the output either way so
		// the observable behavior does not depend on that race.
		state = StateCanceled
		errMsg = "canceled (partial output discarded)"
	case errors.Is(res.err, experiments.ErrCanceled):
		state = StateCanceled
		errMsg = "canceled (partial output discarded)"
	case res.err != nil:
		state = StateFailed
		errMsg = res.err.Error()
	default:
		state = StateDone
	}
	job.mu.Unlock()

	s.mu.Lock()
	if state == StateDone && s.cfg.CacheEntries > 0 {
		key := job.Spec.Key()
		if _, exists := s.cache[key]; !exists {
			for len(s.cacheQ) >= s.cfg.CacheEntries {
				delete(s.cache, s.cacheQ[0])
				s.cacheQ = s.cacheQ[1:]
			}
			s.cache[key] = res.out
			s.cacheQ = append(s.cacheQ, key)
		}
	}
	s.retireLocked(job.ID)
	s.mu.Unlock()
	s.metrics.finished(job.Spec.Experiment, state, ranFor)

	job.mu.Lock()
	job.finished = finished
	job.ranFor = ranFor
	job.state = state
	job.errMsg = errMsg
	if state == StateDone {
		job.output = res.out
	}
	close(job.done)
	job.mu.Unlock()
}
