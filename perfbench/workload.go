package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// workload is one named input set. Batch workloads render full-size
// experiments through experiments.Run, exactly as ssbench does; serve-mix
// drives an in-process ssserve over HTTP.
type workload struct {
	name string
	why  string
	exps []string // full-size experiments in run order; nil for serve-mix
}

const serveMix = "serve-mix"

var workloads = []workload{
	{"phy-sync", "the sample-level PHY (dsp FFTs, modem Viterbi and demap, phy joint receive, jce tracking) does nearly all the work; netsim and permodel are nearly idle",
		[]string{"fig12", "fig13", "detdelay", "ablations"}},
	{"metro-city", "one 10x10-cell city with 400-1200 concurrent downlinks: netsim per-event cost, permodel delivery draws and testbed.Grid dominate, with no sample-level PHY",
		[]string{"metro"}},
	{"cell-family", "thousands of small sims with 1-40 flows, so per-sim set-up and the unbounded interference scan dominate; lasthop, exor, samplerate, etx and scenario runners work here",
		[]string{"fig17", "fig18", "cell", "cellsweep", "crosstraffic", "crosstraffic-spatial", "arrivals", "mobility"}},
	{serveMix, "in-process ssserve under a closed loop of nproc clients: HTTP, spec normalize, queue, cache and JSON; hits are pure service overhead, misses are queue plus render",
		nil},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digestSeeds is how many workload seeds digests.json covers: full-size
// outputs for seeds 1..digestSeeds and quick outputs for 2..digestSeeds.
// Seed-1 quick outputs are checked against the committed golden files.
const digestSeeds = 16

// workloadSeed maps the --seed argument onto 1..digestSeeds, the seeds the
// benchmark holds reference outputs for. The mapped seed becomes
// experiments.Params.Seed.
func workloadSeed(n int64) int64 {
	m := (n - 1) % digestSeeds
	if m < 0 {
		m += digestSeeds
	}
	return m + 1
}

// serveSeeds lists the quick-job seeds serve-mix submits: seed 1, whose
// outputs are the committed goldens, plus five consecutive seeds from
// 2..digestSeeds starting at the workload seed.
func serveSeeds(ws int64) []int64 {
	seeds := []int64{1}
	for k := int64(0); k < 5; k++ {
		seeds = append(seeds, 2+(ws-1+k)%(digestSeeds-1))
	}
	return seeds
}

// digestFile is digests.json: the SHA-256 of every output the benchmark
// verifies, recorded with -regen-digests. Full and Quick map a seed to an
// experiment to a hex digest.
type digestFile struct {
	Commit string                       `json:"commit"`
	Full   map[string]map[string]string `json:"full"`
	Quick  map[string]map[string]string `json:"quick"`
}

//go:embed digests.json
var digestsJSON []byte

// goldenDir holds the committed seed-1 quick outputs, relative to the
// repository root the benchmark runs from.
var goldenDir = filepath.Join("internal", "experiments", "testdata", "golden")

// references checks outputs against the recorded digests and goldens.
type references struct {
	digests digestFile
	golden  map[string][]byte // experiment -> seed-1 quick output
}

// loadReferences parses the embedded digests and, when quick outputs will
// be checked, reads the golden files of exps.
func loadReferences(exps []string) (*references, error) {
	r := &references{golden: map[string][]byte{}}
	if err := json.Unmarshal(digestsJSON, &r.digests); err != nil {
		return nil, fmt.Errorf("digests.json: %v", err)
	}
	for _, e := range exps {
		b, err := os.ReadFile(filepath.Join(goldenDir, e+".txt"))
		if err != nil {
			return nil, err
		}
		r.golden[e] = b
	}
	return r, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// check returns nil when out is the reference output of exp at seed. Quick
// seed-1 outputs are compared byte for byte against the goldens; every
// other output against its recorded digest.
func (r *references) check(exp string, seed int64, quick bool, out []byte) error {
	if quick && seed == 1 {
		want, ok := r.golden[exp]
		if !ok {
			return fmt.Errorf("%s: no golden file loaded", exp)
		}
		if !bytes.Equal(out, want) {
			return fmt.Errorf("%s seed 1 quick: output differs from %s at byte %d",
				exp, filepath.Join(goldenDir, exp+".txt"), firstDiff(out, want))
		}
		return nil
	}
	table, kind := r.digests.Full, "full"
	if quick {
		table, kind = r.digests.Quick, "quick"
	}
	want, ok := table[strconv.FormatInt(seed, 10)][exp]
	if !ok {
		return fmt.Errorf("%s seed %d %s: no recorded digest", exp, seed, kind)
	}
	if got := digest(out); got != want {
		return fmt.Errorf("%s seed %d %s: sha256 %s, want %s", exp, seed, kind, got[:12], want[:12])
	}
	return nil
}

// firstDiff is the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
