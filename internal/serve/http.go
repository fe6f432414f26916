package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/experiments"
)

// Endpoints lists every route the daemon serves, in the notation
// Handler registers them with. docs_test.go holds docs/ARCHITECTURE.md to
// this list (the endpoints analogue of the experiments docs-freshness
// gate), so adding a route without documenting it fails CI.
func Endpoints() []string {
	return []string{
		"POST /jobs",
		"GET /jobs",
		"GET /jobs/{id}",
		"GET /jobs/{id}/output",
		"GET /jobs/{id}/stream",
		"POST /jobs/{id}/cancel",
		"GET /spec",
		"GET /healthz",
		"GET /metrics",
		"GET /debug/pprof/",
	}
}

// shutdownGrace bounds how long Serve waits for in-flight requests once
// its context is done; a progress stream still open after it is cut.
const shutdownGrace = 5 * time.Second

// Serve answers Handler's API on ln until ctx is done or ln fails. When
// ctx is done it stops accepting connections, gives in-flight requests up
// to shutdownGrace to finish, closes whatever is still open, and returns
// nil; a listener failure is returned as is. Serve leaves s open: the
// caller's Close then cancels queued and running jobs and drains the
// runners.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if hs.Shutdown(grace) != nil {
		hs.Close() // the grace ran out: cut the remaining connections
	}
	<-served // http.ErrServerClosed, now that Shutdown has begun
	return nil
}

// Handler returns the daemon's HTTP API:
//
//	POST /jobs                submit a Spec, get its Status (202)
//	GET  /jobs                all jobs, submission order
//	GET  /jobs/{id}           one job's Status
//	GET  /jobs/{id}/output    the exact ssbench stdout bytes (200 when done)
//	GET  /jobs/{id}/stream    chunked JSON status lines until terminal
//	POST /jobs/{id}/cancel    cooperative cancellation
//	GET  /spec                the accepted job-spec wire format
//	GET  /healthz             liveness
//	GET  /metrics             Prometheus-style text counters
//	GET  /debug/pprof/        live runtime profiles (CPU, heap, goroutine, ...)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/output", s.handleOutput)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /spec", s.handleSpec)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Profiling is read-only introspection of the service process: it can
	// never touch job output (profiles observe the scheduler, they don't
	// perturb RNG draws or event order), so exposing it unconditionally is
	// safe under the determinism contract. This is how the netsim hot path
	// gets profiled in situ — submit a big job, then fetch
	// /debug/pprof/profile while it runs.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxSpecBytes caps a POST /jobs body. Specs, inline scenarios included,
// are a few kilobytes; anything near the cap is not a spec.
const maxSpecBytes = 1 << 20

// decodeSpec is POST /jobs' strict decode of a job spec: one JSON
// document, no unknown fields, nothing after it but whitespace.
func decodeSpec(body []byte) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("bad job spec: %v", err)
	}
	if len(bytes.TrimSpace(body[dec.InputOffset():])) > 0 {
		return spec, errors.New("bad job spec: trailing data after the JSON document")
	}
	return spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "job spec larger than %d bytes", tooBig.Limit)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading job spec: %v", err)
		return
	}
	spec, err := decodeSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, "%v: retry later", err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

// jobFor resolves the {id} path segment, writing a 404 when unknown.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	out, done := j.Output()
	if !done {
		st := j.Status()
		writeError(w, http.StatusConflict, "job %s is %s, not done%s", j.ID, st.State, errSuffix(st.Error))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(out) //nolint:errcheck // client gone; nothing to do
}

// errSuffix formats a job error for embedding in a message.
func errSuffix(errMsg string) string {
	if errMsg == "" {
		return ""
	}
	return ": " + errMsg
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// streamInterval paces the progress stream: one status line per tick (or
// sooner, on the terminal transition).
const streamInterval = 100 * time.Millisecond

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		st := j.Status()
		if err := enc.Encode(st); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.State.terminal() {
			return
		}
		tm := newTimer(streamInterval)
		select {
		case <-j.Done():
			tm.Stop()
		case <-tm.C:
		case <-r.Context().Done():
			tm.Stop()
			return
		}
	}
}

// SpecDoc is the machine-readable description of the job wire format
// served at GET /spec, so clients can discover the accepted fields (and
// the experiment names this build registers) without reading the source.
type SpecDoc struct {
	// Version is the wire-format version this server speaks.
	Version string `json:"version"`
	// Experiments lists every name POST /jobs accepts, plus "all".
	Experiments []string `json:"experiments"`
	// Fields maps each accepted top-level spec field to its meaning.
	Fields map[string]string `json:"fields"`
	// Options maps each field of the "options" sub-object to its meaning.
	Options map[string]string `json:"options"`
}

// specDoc builds the GET /spec response. The field lists are maintained
// by hand next to the Spec struct's tags; the serve unit tests hold them
// in sync by diffing against the struct's actual JSON keys.
func specDoc() SpecDoc {
	return SpecDoc{
		Version:     "v2",
		Experiments: append(experiments.Names(), "all", "scenario"),
		Fields: map[string]string{
			"version":     `wire-format version: omit or "v2"`,
			"experiment":  "registered experiment name, or \"all\" (required)",
			"seed":        "base random seed (default 1)",
			"quick":       "run the shrunken ~10x-faster workloads",
			"workers":     "engine worker bound; 0 = one per CPU (never changes output bytes)",
			"options":     "experiment-shaping knobs; see \"options\" below",
			"scenario":    `inline declarative scenario spec; required by and exclusive to experiment "scenario"`,
			"timeout_sec": "cap on run time; 0 = server default",
		},
		Options: map[string]string{
			"cells":      "cellsweep's capacity-vs-cell-count sweep",
			"cs_ranges":  "cellsweep's carrier-sense sweep (meters)",
			"window_sec": "fixed-time-window saturation mode (cell, cellsweep, metro, backlogged scenario specs)",
		},
	}
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, specDoc())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.render(w, len(s.queue))
}
