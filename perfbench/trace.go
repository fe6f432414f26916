package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// span is one traced call the benchmark made into a layer. Times are
// nanoseconds since the tracer's origin; Parent 0 means a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs take the same code path at no cost.
type tracer struct {
	mu     sync.Mutex //sslint:allow detgoroutine serve-mix clients record spans concurrently; spans are observability, never program input
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now()} //sslint:allow detwallclock span timestamps are the benchmark's measurement, outside any simulation
}

func (t *tracer) now() int64 {
	return time.Since(t.origin).Nanoseconds() //sslint:allow detwallclock span timestamps are the benchmark's measurement, outside any simulation
}

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// seconds is the duration of the first span named name, or 0.
func (t *tracer) seconds(name string) float64 {
	for _, s := range t.spans {
		if s.Name == name {
			return float64(s.End-s.Start) / 1e9
		}
	}
	return 0
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return writeFile(path, b)
}

// runtimeNames are the runtime/metrics read around a traced timed region.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// runtimeLayer turns two readRuntime snapshots into the runtime.* metrics.
// The runtime's CPU classes are estimates refreshed at each GC, so
// gc_cpu_frac is GC CPU over non-idle CPU as of the last cycle.
func runtimeLayer(before, after []float64) map[string]float64 {
	d := make([]float64, len(before))
	for i := range d {
		d[i] = after[i] - before[i]
	}
	frac := 0.0
	if busy := d[3] - d[4]; busy > 0 {
		frac = d[2] / busy
	}
	return map[string]float64{
		"runtime.alloc_mb":    d[0] / (1 << 20),
		"runtime.gc_cycles":   d[1],
		"runtime.gc_cpu_frac": frac,
	}
}

// shareLayers are the layers a CPU profile is split into: the repo's
// packages by import path under repro/internal, the root sourcesync
// package, the Go runtime, and everything else.
var shareLayers = []string{
	"dsp", "modem", "phy", "jce", "channel", "permodel", "netsim", "testbed",
	"samplerate", "etx", "lasthop", "exor", "engine", "sourcesync", "serve",
	"runtime", "other",
}

// layerOf maps a profiled function name such as
// "repro/internal/netsim.(*Sim).Step" to its share layer.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other import paths
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "repro":
		return "sourcesync"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, l := range shareLayers {
			if l == name {
				return l
			}
		}
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// layerShares reduces a gzipped pprof CPU profile to every share layer's
// fraction of self CPU time, keyed "share.<layer>". A sample's self time
// belongs to the innermost function of its leaf location. The shares sum
// to 1, or are all 0 for a region too short to hold a sample.
func layerShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || p.valueIdx >= len(s.values) {
			continue
		}
		name := ""
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			name = p.str(p.funcNames[fns[0]])
		}
		v := s.values[p.valueIdx]
		byLayer[layerOf(name)] += v
		total += v
	}
	out := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		out["share."+l] = float64(byLayer[l]) / float64(max(total, 1))
	}
	return out, nil
}

// profile is the part of a decoded profile.proto message the shares need.
type profile struct {
	valueIdx  int // index of the cpu value in each sample
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]uint64   // function id -> string table index
	strings   []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// parseProfile decodes the protobuf wire format of profile.proto
// (github.com/google/pprof), keeping sample types, samples, locations,
// functions and the string table.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]uint64{}}
	var sampleTypes []uint64 // string index of each sample type's name
	err := protoFields(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var typ uint64
			err := protoFields(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case 2: // sample
			var s profSample
			err := protoFields(data, func(n, w int, v uint64, d []byte) error {
				var vals []uint64
				var err error
				switch n {
				case 1:
					s.locs, err = appendVarints(s.locs, w, v, d)
				case 2:
					vals, err = appendVarints(nil, w, v, d)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return protoFields(d, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := protoFields(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIdx = len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if p.str(t) == "cpu" {
			p.valueIdx = i
		}
	}
	return p, nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes. Fixed
// 32- and 64-bit fields are skipped.
func protoFields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("profile: truncated fixed field")
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
