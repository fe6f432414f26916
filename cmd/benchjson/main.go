// Command benchjson converts `go test -bench` text output (stdin) into a
// JSON perf record (stdout), so CI can archive simulator speed as an
// artifact and the perf trajectory of the hot paths stays machine-readable.
//
// Usage:
//
//	go test -bench . -benchtime 1x -count 5 -run '^$' ./... | go run ./cmd/benchjson > BENCH_netsim.json
//
// Each benchmark line ("BenchmarkName-8  10  123456 ns/op  42 frames/s")
// is parsed with its package (from the preceding "pkg:" line),
// iterations, ns/op, and any extra b.ReportMetric pairs. The lines of one
// benchmark repeated by -count N fold into one record: its ns/op and each
// metric are the median of the runs that report it, its iterations the
// runs' total, and runs their number.
//
// -require REGEXP[@UNIT] exits nonzero unless at least one parsed
// benchmark's "package.Name" matches — and, with the @UNIT suffix, that a
// matching benchmark actually reports the named metric (e.g.
// -require 'StepScaling/flows=10000$@ns/event'). The flag is repeatable;
// every requirement must be met. This is CI's guard against a
// perf-critical benchmark — or just its ReportMetric line — silently
// dropping out of the artifact (e.g. the netsim interference hot path or
// the StepScaling per-event metrics the baseline gate watches).
//
// -baseline FILE compares this run against a committed record (the repo's
// BENCH_netsim.json): every baseline benchmark must appear in the current
// run, and no shared metric may be worse than -max-regress times its
// baseline value. Latency-like units (ns/op, ns/event) regress upward,
// rate-like units (anything per second) regress downward. The JSON record
// is emitted either way so the artifact survives a failing gate; the
// default factor is deliberately generous because CI runs benchmarks at
// -benchtime 1x on shared runners, and it gates medians of -count runs
// so that one slow run cannot fail it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's parsed result.
type Benchmark struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// Runs is how many lines of the benchmark were folded into this
	// record (go test -count).
	Runs int `json:"runs,omitempty"`
}

// Record is the artifact schema: enough context to compare runs over time.
type Record struct {
	Schema     string      `json:"schema"`
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var requires requireFlags
	flag.Var(&requires, "require", "fail unless a parsed benchmark's package.Name matches this REGEXP[@UNIT]; repeatable, all must be met")
	baseline := flag.String("baseline", "", "fail if any benchmark in this record regressed past -max-regress")
	maxRegress := flag.Float64("max-regress", 5, "tolerated slowdown factor for -baseline (CI timings are noisy)")
	flag.Parse()
	reqs, err := parseRequirements(requires)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	// The baseline is read before any output so a bad path fails fast —
	// and so a caller redirecting stdout over the baseline file cannot
	// accidentally compare the run against itself.
	var base *Record
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: reading -baseline: %v\n", err)
			os.Exit(2)
		}
		base = &Record{}
		if err := json.Unmarshal(data, base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing -baseline %s: %v\n", *baseline, err)
			os.Exit(2)
		}
	}

	rec := Record{Schema: "repro-bench/v1"}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rec.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rec.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rec.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		}
		b, ok := parseBenchLine(line, pkg)
		if !ok {
			continue
		}
		rec.Benchmarks = append(rec.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(rec.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	rec.Benchmarks = foldRuns(rec.Benchmarks)
	if unmet := unmetRequirements(rec.Benchmarks, reqs); len(unmet) > 0 {
		for _, msg := range unmet {
			fmt.Fprintf(os.Stderr, "benchjson: %s — the perf artifact would silently drop it\n", msg)
		}
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if base != nil {
		if bad := compareBaseline(base.Benchmarks, rec.Benchmarks, *maxRegress); len(bad) > 0 {
			for _, msg := range bad {
				fmt.Fprintf(os.Stderr, "benchjson: regression vs %s: %s\n", *baseline, msg)
			}
			os.Exit(1)
		}
	}
}

// foldRuns merges the runs of each benchmark (same package and name) into
// one record at the position of its first run: ns/op and each metric are
// the median over the runs that report them, Iterations sums the runs'
// iterations and Runs counts them.
func foldRuns(runs []Benchmark) []Benchmark {
	var order []string
	byKey := map[string][]Benchmark{}
	for _, b := range runs {
		key := b.Package + "." + b.Name
		if _, ok := byKey[key]; !ok {
			order = append(order, key)
		}
		byKey[key] = append(byKey[key], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, key := range order {
		group := byKey[key]
		f := Benchmark{Name: group[0].Name, Package: group[0].Package, Runs: len(group)}
		ns := make([]float64, len(group))
		metrics := map[string][]float64{}
		for i, b := range group {
			f.Iterations += b.Iterations
			ns[i] = b.NsPerOp
			for _, unit := range slices.Sorted(maps.Keys(b.Metrics)) {
				metrics[unit] = append(metrics[unit], b.Metrics[unit])
			}
		}
		f.NsPerOp = median(ns)
		for unit, vs := range metrics {
			if f.Metrics == nil {
				f.Metrics = map[string]float64{}
			}
			f.Metrics[unit] = median(vs)
		}
		out = append(out, f)
	}
	return out
}

// median returns the middle value of vs, or the mean of the two middle
// values when len(vs) is even. It sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// compareBaseline checks the current benchmarks against a committed
// baseline and returns one message per violation: a baseline benchmark
// missing from this run, or a shared metric worse than factor times its
// baseline value. Benchmarks new in this run pass freely — they have no
// baseline yet.
func compareBaseline(base, cur []Benchmark, factor float64) []string {
	curBy := make(map[string]Benchmark, len(cur))
	for _, b := range cur {
		curBy[b.Package+"."+b.Name] = b
	}
	var bad []string
	for _, want := range base {
		key := want.Package + "." + want.Name
		got, ok := curBy[key]
		if !ok {
			bad = append(bad, key+": in baseline but missing from this run")
			continue
		}
		check := func(unit string, wantV, gotV float64) {
			// A zero, negative, or non-finite value on either side means
			// there is nothing meaningful to ratio: a zero-iteration or
			// hand-edited baseline must not manufacture a regression (or
			// silently mask one by making every comparison NaN).
			if !isFiniteRatioable(wantV) || !isFiniteRatioable(gotV) {
				return
			}
			ratio := gotV / wantV
			if !lowerIsBetter(unit) {
				ratio = wantV / gotV
			}
			if ratio > factor {
				bad = append(bad, fmt.Sprintf("%s %s: %.4g -> %.4g (%.2fx worse, limit %.2fx)",
					key, unit, wantV, gotV, ratio, factor))
			}
		}
		check("ns/op", want.NsPerOp, got.NsPerOp)
		units := make([]string, 0, len(want.Metrics))
		for u := range want.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			if gotV, ok := got.Metrics[u]; ok {
				check(u, want.Metrics[u], gotV)
			}
		}
	}
	return bad
}

// lowerIsBetter reports whether a metric unit improves downward (latencies
// like ns/op or ns/event) rather than upward (rates like frames/s, ratios
// like speedup-x).
func lowerIsBetter(unit string) bool {
	return !strings.Contains(unit, "/s") && !strings.Contains(unit, "speedup")
}

// isFiniteRatioable reports whether v can sit on either side of a
// regression ratio: strictly positive and finite.
func isFiniteRatioable(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// requireFlags collects repeated -require values.
type requireFlags []string

func (r *requireFlags) String() string { return strings.Join(*r, ",") }
func (r *requireFlags) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// requirement is one parsed -require value: a pattern over "package.Name",
// plus an optional metric unit the matching benchmark must report.
type requirement struct {
	raw  string
	re   *regexp.Regexp
	unit string // "" = presence of the benchmark alone suffices
}

// parseRequirements compiles -require values of the form REGEXP[@UNIT].
// The unit is split on the last "@" so regexp syntax containing "@" stays
// expressible (units themselves never contain one).
func parseRequirements(raw []string) ([]requirement, error) {
	reqs := make([]requirement, 0, len(raw))
	for _, v := range raw {
		pat, unit := v, ""
		if i := strings.LastIndex(v, "@"); i >= 0 {
			pat, unit = v[:i], v[i+1:]
			if unit == "" {
				return nil, fmt.Errorf("bad -require %q: empty unit after @", v)
			}
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("bad -require %q: %v", v, err)
		}
		reqs = append(reqs, requirement{raw: v, re: re, unit: unit})
	}
	return reqs, nil
}

// unmetRequirements returns one message per -require value no benchmark
// satisfies: the pattern must match some "package.Name", and when a unit
// is named, a matching benchmark must report that metric ("ns/op" counts —
// every parsed benchmark has it).
func unmetRequirements(benchmarks []Benchmark, reqs []requirement) []string {
	var unmet []string
	for _, req := range reqs {
		matched, withUnit := false, false
		for _, b := range benchmarks {
			if !req.re.MatchString(b.Package + "." + b.Name) {
				continue
			}
			matched = true
			if req.unit == "" || req.unit == "ns/op" {
				withUnit = true
				break
			}
			if _, ok := b.Metrics[req.unit]; ok {
				withUnit = true
				break
			}
		}
		switch {
		case !matched:
			unmet = append(unmet, fmt.Sprintf("no benchmark matches -require %q", req.raw))
		case !withUnit:
			unmet = append(unmet, fmt.Sprintf("benchmarks match -require %q but none reports metric %q", req.raw, req.unit))
		}
	}
	return unmet
}

// parseBenchLine parses one "BenchmarkFoo-8 N value unit [value unit]..."
// line; ok is false for anything else.
func parseBenchLine(line, pkg string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters < 0 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Package: pkg, Iterations: iters, NsPerOp: -1}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		// ParseFloat happily accepts "NaN" and "Inf", but a non-finite
		// value is never a real benchmark measurement — and NaN would later
		// make json.Encoder fail on the whole record. Treat the line as
		// noise instead.
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return Benchmark{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[unit] = v
	}
	if b.NsPerOp < 0 {
		return Benchmark{}, false
	}
	return b, true
}
