// Command perfbench is the repository's reference benchmark. It runs one
// named workload through the entry points users hit — experiments.Run as
// ssbench calls it, or ssserve's HTTP API — verifies every output, and
// prints the end-to-end metrics (or, traced, the per-layer metrics) with a
// JSON summary as its last line:
//
//	perfbench --workload phy-sync --seed 1 --seconds 30 --trace 0
//
// Every measured run is a fresh child process, so set-up, lazy caches and
// peak RSS are paid per run as ssbench users pay them. perfbench/run.sh
// builds and runs it from the repository root; see perfbench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
)

func main() {
	name := flag.String("workload", "", "workload to run: phy-sync, metro-city, cell-family or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed; mapped onto the seeds digests.json covers")
	seconds := flag.Int("seconds", 30, "measurement budget of an untraced run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	child := flag.String("child", "", "internal: run one measured process (run, probes or calib)")
	spawnNs := flag.Int64("spawn-ns", 0, "internal: the parent's wall clock when it started this process, in Unix ns")
	traceTo := flag.String("trace-to", "", "internal: trace this child, writing spans and CPU profile under this path prefix")
	regen := flag.Bool("regen-digests", false, "re-record perfbench/digests.json from the current code and exit")
	commit := flag.String("commit", "", "with -regen-digests: the commit the digests are recorded from")
	flag.Parse()

	switch {
	case *regen:
		regenDigests(*commit)
	case *child != "":
		w, _ := findWorkload(*name)
		var res childResult
		switch {
		case *child == "probes":
			res = runProbes()
		case *child == "calib":
			res = runCalib()
		case w.name == "":
			fatalf("unknown workload %q", *name)
		case w.exps == nil:
			res = runServe(*seed, *spawnNs, *traceTo)
		default:
			res = runBatch(w, *seed, *spawnNs, *traceTo)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
	default:
		os.Exit(drive(*name, *seed, *seconds, *trace))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metricDef describes one reported metric. note defines an end-to-end
// metric, or names the end-to-end metric and workload a per-layer metric
// is expected to move.
type metricDef struct {
	name, unit, better, note string
}

// endToEnd are the untraced run's metrics, reported for every workload.
var endToEnd = []metricDef{
	{"wall_ref_s", "s", "lower", "wall time of the timed region at the reference host speed: median over the run's processes, times calibRefS over the calibration median"},
	{"cpu_ref_s", "s", "lower", "user+sys CPU of a process over its timed region at the reference host speed: median, times calibRefCPUS over the calibration's CPU median"},
	{"peak_rss_mb", "MB", "lower", "max RSS of a process, median"},
	{"setup_s", "s", "lower", "process start to the start of the timed region, median, scaled like wall_ref_s"},
}

// perLayer are the traced run's metrics, in report order.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, w := range workloads {
		for _, e := range w.exps {
			defs = append(defs, metricDef{"experiments." + e + "_s", "s", "lower", "wall_ref_s on " + w.name})
		}
	}
	defs = append(defs,
		metricDef{"engine.trials", "count", "lower", "a count: repeats exactly for a workload and seed"},
		metricDef{"engine.trials_per_s", "1/s", "higher", "wall_ref_s on phy-sync"},
		metricDef{"engine.parallel_eff", "fraction", "higher", "wall_ref_s on phy-sync and metro-city"},
		metricDef{"runtime.alloc_mb", "MB", "lower", "cpu_ref_s and peak_rss_mb on metro-city"},
		metricDef{"runtime.gc_cycles", "count", "lower", "cpu_ref_s and peak_rss_mb on metro-city"},
		metricDef{"runtime.gc_cpu_frac", "fraction", "lower", "cpu_ref_s and peak_rss_mb on metro-city"},
	)
	for _, l := range shareLayers {
		defs = append(defs, metricDef{"share." + l, "fraction", "lower", "wall_ref_s on the workload where it is largest"})
	}
	defs = append(defs,
		metricDef{"dsp.fft64_ns", "ns", "lower", "wall_ref_s on phy-sync"},
		metricDef{"modem.viterbi_1500B_us", "us", "lower", "wall_ref_s on phy-sync"},
		metricDef{"modem.decode_1460B_54M_us", "us", "lower", "wall_ref_s on phy-sync"},
		metricDef{"phy.joint_frame_us", "us", "lower", "wall_ref_s on phy-sync"},
		metricDef{"permodel.per_ns", "ns", "lower", "wall_ref_s on cell-family and metro-city"},
		metricDef{"netsim.city_ns_per_event", "ns", "lower", "wall_ref_s on metro-city"},
		metricDef{"netsim.city_allocs_per_event", "count", "lower", "wall_ref_s on metro-city"},
		metricDef{"netsim.city_bytes_per_flow", "bytes", "lower", "peak_rss_mb on metro-city"},
		metricDef{"netsim.small_us", "us", "lower", "wall_ref_s on cell-family"},
		metricDef{"netsim.rateaware_cold_ms", "ms", "lower", "wall_ref_s on cell-family"},
		metricDef{"lasthop.cell_joint_ms", "ms", "lower", "wall_ref_s on cell-family"},
		metricDef{"lasthop.cell_single_ms", "ms", "lower", "wall_ref_s on cell-family"},
		metricDef{"exor.run_ms", "ms", "lower", "wall_ref_s on cell-family"},
		metricDef{"scenario.parse_us", "us", "lower", "serve.hit_p50_s"},
		metricDef{"serve.job_p50_s", "s", "lower", "wall_ref_s on serve-mix: cache-miss submit-to-output latency"},
		metricDef{"serve.job_p90_s", "s", "lower", "wall_ref_s on serve-mix"},
		metricDef{"serve.job_samples", "count", "higher", "the sample count behind serve.job_p90_s"},
		metricDef{"serve.hit_p50_s", "s", "lower", "wall_ref_s on serve-mix: cache-hit submit-to-output latency"},
		metricDef{"serve.jobs_per_s", "1/s", "higher", "wall_ref_s on serve-mix"},
		metricDef{"serve.submit_p50_s", "s", "lower", "serve.hit_p50_s"},
		metricDef{"serve.queue_wait_p50_s", "s", "lower", "serve.job_p90_s"},
		metricDef{"serve.queue_wait_p90_s", "s", "lower", "serve.job_p90_s"},
		metricDef{"serve.run_p50_s", "s", "lower", "serve.job_p50_s"},
		metricDef{"serve.fetch_p50_s", "s", "lower", "serve.job_p50_s"},
		metricDef{"serve.overhead_p50_s", "s", "lower", "serve.hit_p50_s"},
		metricDef{"serve.cache_hit_ratio", "fraction", "higher", "wall_ref_s on serve-mix"},
		metricDef{"serve.rejected", "count", "lower", "failed operations on serve-mix"},
		metricDef{"trace.overhead_frac", "fraction", "lower", "none: traced wall_s over untraced wall_s, minus 1"},
	)
	return defs
}()

// harness runs one workload's measured processes and tallies operations.
type harness struct {
	w         workload
	seed      int64
	attempted int
	failures  []string
}

// spawn runs one child process of this binary and returns its result and
// peak RSS in MB. A child that crashes or reports garbage is one failed
// operation.
func (d *harness) spawn(args ...string) (childResult, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, 0, err
	}
	var out bytes.Buffer
	spawnNs := time.Now().UnixNano() //sslint:allow detwallclock set-up time spans the process boundary, so it needs the wall clock
	cmd := exec.Command(self, append([]string{"-spawn-ns", strconv.FormatInt(spawnNs, 10)}, args...)...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	err = cmd.Run()
	var res childResult
	if err == nil {
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	}
	if err != nil {
		d.attempted++
		d.failures = append(d.failures, fmt.Sprintf("child %v: %v", args, err))
		return res, 0, err
	}
	d.attempted += res.Ops
	d.failures = append(d.failures, res.Failures...)
	rss := float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
	return res, rss, nil
}

func (d *harness) runArgs(w workload) []string {
	return []string{"-child", "run", "-workload", w.name, "-seed", strconv.FormatInt(d.seed, 10)}
}

// calibration is the calibration kernel's wall and CPU seconds, one entry
// per run of it.
type calibration struct {
	wall, cpu []float64
}

// calibrate times the calibration kernel in a fresh process and records
// it in c.
func (d *harness) calibrate(c *calibration) error {
	res, _, err := d.spawn("-child", "calib")
	if err == nil {
		c.wall, c.cpu = append(c.wall, res.WallS), append(c.cpu, res.CPUS)
	}
	return err
}

// untraced measures fresh processes back to back for the budget: it starts
// another only while the last one's duration, with its calibration, still
// fits. The calibration kernel runs before every process and after the
// last.
func (d *harness) untraced(budget time.Duration) map[string]float64 {
	var wall, cpu, rss, setup, jobsPerS []float64
	var calib calibration
	var jobs []jobSample
	start := time.Now() //sslint:allow detwallclock the run's measurement budget
	if d.calibrate(&calib) != nil {
		return map[string]float64{}
	}
	for {
		t := time.Now() //sslint:allow detwallclock the run's measurement budget
		res, mb, err := d.spawn(d.runArgs(d.w)...)
		if err != nil {
			break
		}
		if d.calibrate(&calib) != nil {
			break
		}
		wall, cpu, rss, setup = append(wall, res.WallS), append(cpu, res.CPUS), append(rss, mb), append(setup, res.SetupS)
		jobsPerS = append(jobsPerS, float64(res.Ops)/res.WallS)
		jobs = append(jobs, res.Jobs...)
		n := len(calib.wall)
		fmt.Printf("process %d: wall %.3f s, cpu %.3f s, peak rss %.1f MB, setup %.4f s, %d ops, %d failed, calibration wall %.3f s before and %.3f s after\n",
			len(wall), res.WallS, res.CPUS, mb, res.SetupS, res.Ops, len(res.Failures), calib.wall[n-2], calib.wall[n-1])
		if last := time.Since(t); time.Since(start)+last > budget { //sslint:allow detwallclock the run's measurement budget
			break
		}
	}
	scale, cpuScale := calibRefS/median(calib.wall), calibRefCPUS/median(calib.cpu)
	m := map[string]float64{
		"wall_ref_s":  median(wall) * scale,
		"cpu_ref_s":   median(cpu) * cpuScale,
		"peak_rss_mb": median(rss),
		"setup_s":     median(setup) * scale,
	}
	fmt.Printf("%d processes\n", len(wall))
	fmt.Printf("%-14s %12.6f %-8s host wall time of the timed region, median\n", "wall_s", median(wall), "s")
	fmt.Printf("%-14s %12.6f %-8s user+sys CPU of a process over its timed region, median\n", "cpu_s", median(cpu), "s")
	fmt.Printf("%-14s %12.6f %-8s process start to the start of the timed region, median\n", "setup_raw_s", median(setup), "s")
	fmt.Printf("%-14s %12.6f %-8s calibration kernel wall time, median over %d processes; host speed factor %.4f\n", "calib_s", median(calib.wall), "s", len(calib.wall), scale)
	fmt.Printf("%-14s %12.6f %-8s calibration kernel CPU time, median; host speed factor %.4f\n", "calib_cpu_s", median(calib.cpu), "s", cpuScale)
	for _, def := range endToEnd {
		fmt.Printf("%-14s %12.6f %-8s %s\n", def.name, m[def.name], def.unit, def.note)
	}
	if d.w.exps == nil {
		misses, hits := splitJobs(jobs)
		fmt.Printf("%-14s %12.6f %-8s median over %d cache-miss jobs\n", "job_p50_s", quantile(misses, 0.5), "s", len(misses))
		fmt.Printf("%-14s %12.6f %-8s p90 over %d cache-miss jobs, %d beyond it\n", "job_p90_s", quantile(misses, 0.9), "s", len(misses), len(misses)/10)
		fmt.Printf("%-14s %12.6f %-8s median over %d cache-hit jobs\n", "hit_p50_s", quantile(hits, 0.5), "s", len(hits))
		fmt.Printf("%-14s %12.6f %-8s completed jobs over wall_s, median\n", "jobs_per_s", median(jobsPerS), "1/s")
	}
	return m
}

// splitJobs returns the cache-miss and cache-hit latencies.
func splitJobs(jobs []jobSample) (misses, hits []float64) {
	for _, j := range jobs {
		if j.Hit {
			hits = append(hits, j.LatencyS)
		} else {
			misses = append(misses, j.LatencyS)
		}
	}
	return misses, hits
}

// traced runs, each in a fresh process: one untraced pass of the workload
// as the overhead baseline, one traced pass of every workload (the named
// workload's gives the shares, runtime and engine numbers; each workload's
// gives its own experiment spans or serve numbers), and the layer probes.
func (d *harness) traced() map[string]float64 {
	dir := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d", d.w.name, d.seed))
	m := map[string]float64{}
	base, _, baseErr := d.spawn(d.runArgs(d.w)...)
	for _, v := range workloads {
		res, _, err := d.spawn(append(d.runArgs(v), "-trace-to", filepath.Join(dir, v.name))...)
		if err != nil {
			continue
		}
		for _, e := range v.exps {
			m["experiments."+e+"_s"] = res.Layer["experiments."+e+"_s"]
		}
		if v.exps == nil {
			addServeLayer(m, res)
		}
		if v.name != d.w.name {
			continue
		}
		for k, x := range res.Layer {
			if strings.HasPrefix(k, "share.") || strings.HasPrefix(k, "runtime.") {
				m[k] = x
			}
		}
		m["engine.trials"] = float64(res.Trials)
		m["engine.trials_per_s"] = float64(res.Trials) / res.WallS
		if baseErr == nil {
			m["engine.parallel_eff"] = base.CPUS / (base.WallS * float64(runtime.GOMAXPROCS(0)))
			m["trace.overhead_frac"] = res.WallS/base.WallS - 1
		}
	}
	if res, _, err := d.spawn("-child", "probes"); err == nil {
		for k, x := range res.Layer {
			m[k] = x
		}
	}
	fmt.Printf("spans and CPU profiles: %s\n", dir)
	for _, def := range perLayer {
		x, ok := m[def.name]
		if !ok {
			d.failures = append(d.failures, "per-layer metric "+def.name+" was not measured")
		}
		fmt.Printf("%-34s %14.6f %-8s moves %s\n", def.name, x, def.unit, def.note)
	}
	return m
}

// addServeLayer derives the serve.* metrics from a serve-mix child's job
// samples and public Status fields.
func addServeLayer(m map[string]float64, res childResult) {
	var submit, queued, run, fetch, overhead []float64
	for _, j := range res.Jobs {
		submit = append(submit, j.SubmitS)
		if j.Hit {
			continue
		}
		queued = append(queued, j.QueuedS)
		run = append(run, j.RunS)
		fetch = append(fetch, j.FetchS)
		overhead = append(overhead, j.LatencyS-j.QueuedS-j.RunS)
	}
	misses, hits := splitJobs(res.Jobs)
	m["serve.job_p50_s"] = quantile(misses, 0.5)
	m["serve.job_p90_s"] = quantile(misses, 0.9)
	m["serve.job_samples"] = float64(len(misses))
	m["serve.hit_p50_s"] = quantile(hits, 0.5)
	m["serve.jobs_per_s"] = float64(len(res.Jobs)) / res.WallS
	m["serve.submit_p50_s"] = quantile(submit, 0.5)
	m["serve.queue_wait_p50_s"] = quantile(queued, 0.5)
	m["serve.queue_wait_p90_s"] = quantile(queued, 0.9)
	m["serve.run_p50_s"] = quantile(run, 0.5)
	m["serve.fetch_p50_s"] = quantile(fetch, 0.5)
	m["serve.overhead_p50_s"] = quantile(overhead, 0.5)
	m["serve.cache_hit_ratio"] = float64(len(hits)) / float64(max(len(res.Jobs), 1))
	m["serve.rejected"] = float64(res.Rejected)
}

// summary is the machine-readable last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// drive runs one workload, untraced or traced, prints the report and the
// JSON summary, and returns the exit code.
func drive(name string, argSeed int64, seconds, trace int) int {
	w, ok := findWorkload(name)
	switch {
	case !ok:
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (one of %s)\n", name, strings.Join(names, ", "))
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	case seconds < 1:
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be at least 1\n")
		return 2
	}
	if _, err := os.Stat(goldenDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the repository root)\n", err)
		return 2
	}
	d := &harness{w: w, seed: workloadSeed(argSeed)}
	fmt.Printf("perfbench workload=%s seed=%d (workload seed %d) trace=%d\n", w.name, argSeed, d.seed, trace)
	fmt.Printf("why: %s\n", w.why)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d cpu=%q go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())

	defs, values := endToEnd, map[string]float64{}
	if trace == 1 {
		defs, values = perLayer, d.traced()
	} else {
		values = d.untraced(time.Duration(seconds) * time.Second)
	}
	failed := len(d.failures)
	for _, f := range d.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	errRate := float64(failed) / float64(max(d.attempted, 1))
	fmt.Printf("%-14s %12.6f %-8s %d of %d operations failed\n", "error_rate", errRate, "fraction", failed, d.attempted)

	s := summary{Correct: failed == 0, Attempted: max(d.attempted, 1), Failed: failed, Metrics: map[string]metric{}}
	for _, def := range defs {
		v := values[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		s.Metrics[def.name] = metric{v, def.unit}
	}
	b, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// regenDigests re-records digests.json: every full-size experiment of the
// batch workloads at seeds 1..digestSeeds and every quick experiment at
// seeds 2..digestSeeds. Run it from the repository root.
func regenDigests(commit string) {
	if commit == "" {
		fatalf("-regen-digests needs -commit <the commit the outputs come from>")
	}
	df := digestFile{Commit: commit, Full: map[string]map[string]string{}, Quick: map[string]map[string]string{}}
	render := func(exp string, seed int64, quick bool) string {
		p := experiments.DefaultParams()
		p.Seed, p.Quick = seed, quick
		var buf bytes.Buffer
		if err := experiments.Run(&buf, exp, p); err != nil {
			fatalf("%s seed %d: %v", exp, seed, err)
		}
		return digest(buf.Bytes())
	}
	for seed := int64(1); seed <= digestSeeds; seed++ {
		key := strconv.FormatInt(seed, 10)
		df.Full[key] = map[string]string{}
		for _, w := range workloads {
			for _, e := range w.exps {
				df.Full[key][e] = render(e, seed, false)
			}
		}
		if seed > 1 {
			df.Quick[key] = map[string]string{}
			for _, e := range experiments.Names() {
				df.Quick[key][e] = render(e, seed, true)
			}
		}
		fmt.Fprintf(os.Stderr, "seed %d recorded\n", seed)
	}
	b, err := json.MarshalIndent(df, "", " ")
	if err != nil {
		fatalf("%v", err)
	}
	path := filepath.Join("perfbench", "digests.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatalf("%v (run -regen-digests from the repository root)", err)
	}
}
