package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

// Spec is the client-facing description of one experiment job, as posted
// to POST /jobs. The zero value of every optional field means "ssbench's
// default": seed nil is seed 1, empty sweep lists are the standard sweep
// points, workers 0 is one engine worker per CPU.
//
// The wire format is versioned: "version" empty or "v2" selects this
// format; anything else is rejected so a future version can change
// semantics without silently misreading old clients. The experiment-
// shaping knobs live in the "options" sub-object. v2 dropped v1's flat
// aliases (cells, cs_ranges, window_sec, legacy) and options.legacy: like
// any unknown field they are rejected by name, and a "v1" spec is rejected
// as an unsupported version.
type Spec struct {
	// Version selects the wire format: "" or "v2". Anything else is a 400.
	Version string `json:"version,omitempty"`
	// Experiment is a registered experiment name or "all" (ssbench's
	// argument). Case-insensitive.
	Experiment string `json:"experiment"`
	// Seed is the base random seed; nil means ssbench's default of 1.
	Seed *int64 `json:"seed,omitempty"`
	// Quick runs the shrunken ~10x-faster workloads (ssbench -quick).
	Quick bool `json:"quick,omitempty"`
	// Workers bounds the engine's parallelism for this job (ssbench
	// -workers): 0 is one worker per CPU, 1 is serial. By the determinism
	// contract it cannot change the output bytes, so it is excluded from
	// the job's cache key.
	Workers int `json:"workers,omitempty"`
	// Options groups the experiment-shaping knobs (ssbench's -cells, -cs,
	// -window). After normalize it is always non-nil with the default
	// sweeps filled in; on the wire it may be omitted.
	Options *experiments.Options `json:"options,omitempty"`
	// Scenario is an inline declarative scenario spec (the same JSON
	// ssbench -scenario reads from a file), required by — and only
	// accepted with — the generic "scenario" experiment. It is parsed
	// strictly: unknown fields are rejected by name.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// TimeoutSec caps this job's run time; 0 uses the server's default.
	// A timed-out job is cooperatively canceled and reported failed.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// normalize lower-cases the experiment, fills defaults, and validates,
// returning the canonical Spec every later stage (cache key, params) uses.
func (sp Spec) normalize() (Spec, error) {
	if sp.Version != "" && sp.Version != "v2" {
		return sp, fmt.Errorf("unsupported spec version %q (this server speaks \"v2\"; omit the field or send \"v2\")", sp.Version)
	}
	sp.Experiment = strings.ToLower(strings.TrimSpace(sp.Experiment))
	if sp.Experiment == "" {
		return sp, fmt.Errorf("spec is missing an experiment name (one of %s, or \"all\")",
			strings.Join(experiments.Names(), ", "))
	}
	if !experiments.IsName(sp.Experiment) {
		return sp, fmt.Errorf("unknown experiment %q (known: %s, or \"all\")",
			sp.Experiment, strings.Join(experiments.Names(), ", "))
	}
	if sp.Seed == nil {
		one := int64(1)
		sp.Seed = &one
	}
	if sp.Workers < 0 {
		return sp, fmt.Errorf("workers %d < 0", sp.Workers)
	}
	if sp.TimeoutSec < 0 {
		return sp, fmt.Errorf("timeout_sec %g < 0", sp.TimeoutSec)
	}
	opts := sp.options().WithDefaults()
	sp.Options = &opts
	switch {
	case sp.Experiment == "scenario" && len(sp.Scenario) == 0:
		return sp, fmt.Errorf(`experiment "scenario" requires an inline "scenario" spec object`)
	case sp.Experiment != "scenario" && len(sp.Scenario) > 0:
		return sp, fmt.Errorf(`"scenario" is only accepted with experiment "scenario", not %q`, sp.Experiment)
	case len(sp.Scenario) > 0:
		if _, err := scenario.Parse(sp.Scenario); err != nil {
			return sp, fmt.Errorf("bad scenario spec: %w", err)
		}
		// Canonicalize the raw bytes so the cache key is whitespace-blind.
		var compact bytes.Buffer
		if err := json.Compact(&compact, sp.Scenario); err != nil {
			return sp, fmt.Errorf("bad scenario spec: %w", err)
		}
		sp.Scenario = json.RawMessage(compact.Bytes())
	}
	p := sp.params(nil)
	if err := p.Validate(); err != nil {
		return sp, err
	}
	if w := experiments.EstimateWork(sp.Experiment, p); !(w.Packets <= maxJobPackets) {
		return sp, fmt.Errorf("job too large: about %.3g packets to simulate, over the cap of %d; %s dominates, reduce it",
			w.Packets, maxJobPackets, w.Field)
	}
	return sp, nil
}

// maxJobPackets caps a job's estimated work (experiments.EstimateWork)
// at submit, so a spec sized to run for hours is refused instead of
// holding a runner until its timeout. It sits 33 times above the
// full-size "all" run (607,200 packets); at metro's cost per packet,
// about 15 µs on one core, a job at the cap runs about five minutes, a
// third of the default timeout.
const maxJobPackets = 20_000_000

// options returns the spec's experiment options, the zero value when the
// spec has none.
func (sp Spec) options() experiments.Options {
	if sp.Options == nil {
		return experiments.Options{}
	}
	return *sp.Options
}

// params translates the (normalized) Spec into experiments.Params, wiring
// in the job's monitor for progress and cooperative cancellation.
func (sp Spec) params(m *engine.Monitor) experiments.Params {
	seed := int64(1)
	if sp.Seed != nil {
		seed = *sp.Seed
	}
	p := experiments.Params{
		Seed:    seed,
		Quick:   sp.Quick,
		Workers: sp.Workers,
		Options: sp.options(),
		Monitor: m,
	}
	if len(sp.Scenario) > 0 {
		// Already validated by normalize; a parse failure here would mean
		// the spec was mutated after normalization.
		scen, err := scenario.Parse(sp.Scenario)
		if err != nil {
			panic(fmt.Sprintf("normalized spec no longer parses: %v", err))
		}
		p.Scenario = scen
	}
	return p
}

// Key is the output-cache key of a normalized Spec: every field that can
// reach the output bytes, and nothing else. Workers is deliberately
// absent — the determinism contract pins output byte-identical at any
// worker count, so a seed-1 quick fig12 at 1 worker and at 8 workers are
// the same cache entry (the e2e suite proves the contract holds).
// TimeoutSec is absent too: it changes whether a job finishes, never what
// a finished job printed — and Version likewise, since "" and "v2" name
// the same format. The scenario bytes are included compacted, so
// re-submitting the same spec with different whitespace still hits.
func (sp Spec) Key() string {
	seed := int64(1)
	if sp.Seed != nil {
		seed = *sp.Seed
	}
	o := sp.options()
	return fmt.Sprintf("%s|seed=%d|quick=%t|cells=%v|cs=%v|window=%g|scenario=%s",
		sp.Experiment, seed, sp.Quick, o.Cells, o.CSRanges, o.WindowSec, sp.Scenario)
}

// State is a job's lifecycle position. Terminal states are done, failed,
// and canceled.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether a job in this state will never change again.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one submitted experiment run and its lifecycle.
type Job struct {
	// ID is the server-assigned identifier ("j1", "j2", ...).
	ID string
	// Spec is the normalized spec the job runs.
	Spec Spec

	monitor *engine.Monitor

	mu        sync.Mutex
	state     State
	output    []byte
	errMsg    string
	cacheHit  bool
	cancelReq bool
	timedOut  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	queuedFor time.Duration
	ranFor    time.Duration
	done      chan struct{} // closed when the job reaches a terminal state
}

// Status is the JSON view of a job returned by the status endpoints.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Spec  Spec   `json:"spec"`
	// CacheHit marks a job served from the output cache: it was born done
	// without consuming a worker.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error explains failed and canceled states.
	Error string `json:"error,omitempty"`
	// Done/Total are engine trial progress. Total grows as an
	// experiment's successive stages start, so Done/Total underestimates
	// completion until the final stage is scheduled.
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	// QueuedMs and RunMs are wall-clock milliseconds spent waiting and
	// running (RunMs is present once the job finished).
	QueuedMs float64 `json:"queued_ms"`
	RunMs    float64 `json:"run_ms,omitempty"`
}

// Status snapshots the job for JSON rendering.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	done, total := j.monitor.Progress()
	st := Status{
		ID:       j.ID,
		State:    j.state,
		Spec:     j.Spec,
		CacheHit: j.cacheHit,
		Error:    j.errMsg,
		Done:     done,
		Total:    total,
	}
	switch {
	case j.state == StateQueued:
		st.QueuedMs = float64(since(j.submitted)) / float64(time.Millisecond)
	default:
		st.QueuedMs = float64(j.queuedFor) / float64(time.Millisecond)
	}
	if j.state.terminal() && !j.started.IsZero() {
		st.RunMs = float64(j.ranFor) / float64(time.Millisecond)
	} else if j.state == StateRunning {
		st.RunMs = float64(since(j.started)) / float64(time.Millisecond)
	}
	return st
}

// StateNow returns the job's current state.
func (j *Job) StateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Output returns the job's output bytes if it completed successfully.
func (j *Job) Output() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.output, true
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }
