package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/serve"
)

// childResult is what one measured process reports to its parent, as the
// last line of its standard output.
type childResult struct {
	SetupS   float64            `json:"setup_s"`
	WallS    float64            `json:"wall_s"`
	CPUS     float64            `json:"cpu_s"`
	Ops      int                `json:"ops"`
	Failures []string           `json:"failures,omitempty"`
	Trials   int64              `json:"trials"`
	Rejected int                `json:"rejected"`
	Jobs     []jobSample        `json:"jobs,omitempty"`
	Layer    map[string]float64 `json:"layer,omitempty"`
}

func (r *childResult) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// jobSample is one serve-mix job as its client saw it. Queue wait and run
// time come from the job's final public Status.
type jobSample struct {
	Hit      bool    `json:"hit"`
	LatencyS float64 `json:"latency_s"` // submit to output read
	SubmitS  float64 `json:"submit_s"`
	FetchS   float64 `json:"fetch_s"`
	QueuedS  float64 `json:"queued_s"`
	RunS     float64 `json:"run_s"`
}

// region is a child's timed region. For traced children it also brackets
// the CPU profile and the runtime/metrics deltas.
type region struct {
	start   time.Time
	ru      syscall.Rusage
	rt      []float64
	prof    *bytes.Buffer
	traceTo string
}

// beginRegion starts the timed region and returns the set-up time: from
// spawnNs, the parent's wall clock just before it started this process,
// to now. A non-empty traceTo profiles the region and records runtime
// metrics; the profile is written to traceTo + ".cpu.pprof".
func beginRegion(spawnNs int64, traceTo string) (*region, float64) {
	r := &region{traceTo: traceTo}
	if traceTo != "" {
		r.prof = &bytes.Buffer{}
		if err := pprof.StartCPUProfile(r.prof); err != nil {
			fatalf("cpu profile: %v", err)
		}
		r.rt = readRuntime()
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &r.ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	r.start = time.Now() //sslint:allow detwallclock benchmark timing of the measured region
	setup := float64(r.start.UnixNano()-spawnNs) / 1e9
	return r, setup
}

// end closes the region and returns its wall and CPU seconds; for traced
// regions it adds the runtime and share metrics to layer.
func (r *region) end(layer map[string]float64) (wall, cpu float64) {
	wall = time.Since(r.start).Seconds() //sslint:allow detwallclock benchmark timing of the measured region
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	cpu = rusageCPU(ru) - rusageCPU(r.ru)
	if r.prof == nil {
		return wall, cpu
	}
	rt := readRuntime()
	pprof.StopCPUProfile()
	for k, v := range runtimeLayer(r.rt, rt) {
		layer[k] = v
	}
	if err := writeFile(r.traceTo+".cpu.pprof", r.prof.Bytes()); err != nil {
		fatalf("%v", err)
	}
	shares, err := layerShares(r.prof.Bytes())
	if err != nil {
		fatalf("%v", err)
	}
	for k, v := range shares {
		layer[k] = v
	}
	return wall, cpu
}

func rusageCPU(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runBatch renders w's experiments at full size, in order, through
// experiments.Run with ssbench's default Params, and checks every output
// against its recorded digest. A traced run passes an engine.Monitor and
// records a span per Run call.
func runBatch(w workload, seed, spawnNs int64, traceTo string) childResult {
	refs, err := loadReferences(nil)
	if err != nil {
		fatalf("%v", err)
	}
	p := experiments.DefaultParams()
	p.Seed = seed
	var tr *tracer
	var mon *engine.Monitor
	if traceTo != "" {
		tr, mon = newTracer(), &engine.Monitor{}
		p.Monitor = mon
	}
	outs := make([]bytes.Buffer, len(w.exps))
	errs := make([]error, len(w.exps))
	res := childResult{Layer: map[string]float64{}}

	reg, setup := beginRegion(spawnNs, traceTo)
	root := tr.start("workload."+w.name, 0)
	for i, e := range w.exps {
		sp := tr.start("experiments."+e, root)
		errs[i] = experiments.Run(&outs[i], e, p)
		tr.end(sp)
	}
	tr.end(root)
	res.WallS, res.CPUS = reg.end(res.Layer)
	res.SetupS = setup

	for i, e := range w.exps {
		res.Ops++
		if errs[i] != nil {
			res.fail("%s: %v", e, errs[i])
		} else if err := refs.check(e, seed, false, outs[i].Bytes()); err != nil {
			res.fail("%v", err)
		}
	}
	if tr != nil {
		res.Trials, _ = mon.Progress()
		for _, e := range w.exps {
			res.Layer["experiments."+e+"_s"] = tr.seconds("experiments." + e)
		}
		if err := tr.write(traceTo + ".spans.json"); err != nil {
			fatalf("%v", err)
		}
	}
	return res
}

// serveJob is one quick job serve-mix submits.
type serveJob struct {
	exp  string
	seed int64
}

// jobResult is a finished job as one client saw it.
type jobResult struct {
	sample   jobSample
	trials   int64
	rejected bool
	out      []byte
	err      error
}

// serveClient drives ssserve's HTTP API over loopback.
type serveClient struct {
	base string
	http *http.Client
	tr   *tracer
}

// runServe starts an in-process ssserve (default MaxRunning, output cache
// on) on a loopback listener and drives it with a closed loop of
// GOMAXPROCS clients: every quick experiment at each of serveSeeds, then
// the same list again once every first-pass job has finished, so the
// second pass is all cache hits. Every output is verified.
func runServe(seed, spawnNs int64, traceTo string) childResult {
	names := experiments.Names()
	refs, err := loadReferences(names)
	if err != nil {
		fatalf("%v", err)
	}
	var jobs []serveJob
	for _, e := range names {
		for _, s := range serveSeeds(seed) {
			jobs = append(jobs, serveJob{e, s})
		}
	}
	return serveJobs(jobs, refs, spawnNs, traceTo)
}

// serveJobs is runServe's measured process body over a given job list.
func serveJobs(jobs []serveJob, refs *references, spawnNs int64, traceTo string) childResult {
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }() //sslint:allow detgoroutine the HTTP server under test; it touches no simulation state
	n := runtime.GOMAXPROCS(0)
	transport := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
	c := &serveClient{base: "http://" + ln.Addr().String(), http: &http.Client{Transport: transport}}
	if traceTo != "" {
		c.tr = newTracer()
	}
	if err := c.waitHealthy(); err != nil {
		fatalf("%v", err)
	}

	res := childResult{Layer: map[string]float64{}}
	results := make([]jobResult, 2*len(jobs))
	reg, setup := beginRegion(spawnNs, traceTo)
	root := c.tr.start("workload."+serveMix, 0)
	for pass := 0; pass < 2; pass++ {
		c.runPass(jobs, results[pass*len(jobs):], n, root)
	}
	c.tr.end(root)
	res.WallS, res.CPUS = reg.end(res.Layer)
	res.SetupS = setup

	hs.Close()
	<-served
	srv.Close()
	transport.CloseIdleConnections()

	for i, r := range results {
		j := jobs[i%len(jobs)]
		res.Ops++
		if r.rejected {
			res.Rejected++
		}
		if r.err != nil {
			res.fail("%s seed %d: %v", j.exp, j.seed, r.err)
			continue
		}
		if err := refs.check(j.exp, j.seed, true, r.out); err != nil {
			res.fail("%v", err)
		}
		if !r.sample.Hit {
			res.Trials += r.trials
		}
		res.Jobs = append(res.Jobs, r.sample)
	}
	if c.tr != nil {
		if err := c.tr.write(traceTo + ".spans.json"); err != nil {
			fatalf("%v", err)
		}
	}
	return res
}

// runPass runs jobs with n closed-loop clients, each taking the next job
// only after its previous one's output arrived, and returns when all are
// done.
func (c *serveClient) runPass(jobs []serveJob, out []jobResult, n, root int) {
	var next atomic.Int64 //sslint:allow detgoroutine hands the closed-loop clients their next job; which client runs a job reaches no checked byte
	var wg sync.WaitGroup //sslint:allow detgoroutine joins the closed-loop load clients; each job's output is verified on its own
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() { //sslint:allow detgoroutine closed-loop load client; each job's output is verified on its own, so scheduling order reaches no checked byte
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = c.do(jobs[i], root)
			}
		}()
	}
	wg.Wait()
}

// do submits one job, waits on its status stream, which ends the moment
// the job is terminal, and fetches its output.
func (c *serveClient) do(j serveJob, root int) jobResult {
	var r jobResult
	js := c.tr.start("serve.job", root)
	defer c.tr.end(js)
	t0 := time.Now() //sslint:allow detwallclock client-side job latency is the benchmark's measurement

	sp := c.tr.start("serve.submit", js)
	body := fmt.Sprintf(`{"experiment":%q,"seed":%d,"quick":true,"workers":1}`, j.exp, j.seed)
	resp, err := c.http.Post(c.base+"/jobs", "application/json", strings.NewReader(body))
	var st serve.Status
	if err == nil {
		err = decodeStatus(resp, http.StatusAccepted, &st)
		r.rejected = resp.StatusCode == http.StatusServiceUnavailable
	}
	c.tr.end(sp)
	t1 := time.Now() //sslint:allow detwallclock client-side job latency is the benchmark's measurement
	if err != nil {
		r.err = fmt.Errorf("POST /jobs: %v", err)
		return r
	}

	sp = c.tr.start("serve.stream", js)
	last, err := c.stream(st.ID)
	c.tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	if last.State != serve.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", st.ID, last.State, last.Error)
		return r
	}

	t2 := time.Now() //sslint:allow detwallclock client-side job latency is the benchmark's measurement
	sp = c.tr.start("serve.fetch", js)
	r.out, err = c.get("/jobs/" + st.ID + "/output")
	c.tr.end(sp)
	t3 := time.Now() //sslint:allow detwallclock client-side job latency is the benchmark's measurement
	if err != nil {
		r.err = err
		return r
	}
	r.trials = last.Done
	r.sample = jobSample{
		Hit:      last.CacheHit,
		LatencyS: t3.Sub(t0).Seconds(),
		SubmitS:  t1.Sub(t0).Seconds(),
		FetchS:   t3.Sub(t2).Seconds(),
		QueuedS:  last.QueuedMs / 1e3,
		RunS:     last.RunMs / 1e3,
	}
	return r
}

// stream reads GET /jobs/{id}/stream to its end and returns the last
// status line.
func (c *serveClient) stream(id string) (serve.Status, error) {
	var last serve.Status
	resp, err := c.http.Get(c.base + "/jobs/" + id + "/stream")
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return last, fmt.Errorf("GET /jobs/%s/stream: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return last, fmt.Errorf("stream line: %v", err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	if lines == 0 {
		return last, fmt.Errorf("GET /jobs/%s/stream: no status lines", id)
	}
	return last, nil
}

// get fetches a path and returns its body; anything but 200 is an error.
func (c *serveClient) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// decodeStatus reads a JSON Status body that must carry status code want.
func decodeStatus(resp *http.Response, want int, st *serve.Status) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, st)
}

// waitHealthy polls GET /healthz until it answers 200.
func (c *serveClient) waitHealthy() error {
	var err error
	for try := 0; try < 100; try++ {
		if _, err = c.get("/healthz"); err == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond) //sslint:allow detwallclock start-up poll of the server under test, before the timed region
	}
	return fmt.Errorf("server never became healthy: %v", err)
}

// writeFile writes b to path, creating its directory.
func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
