package main

import (
	"math"
	"runtime"
	"sync"
)

// The host this benchmark runs on is shared, and its speed drifts by tens
// of percent over minutes. An untraced run therefore times a fixed kernel,
// owned by the benchmark and untouched by the program, in a fresh process
// before every measured process and after the last. It scales its wall
// and set-up medians by calibRefS over the kernel's median wall time, and
// its CPU median by calibRefCPUS over the kernel's median CPU time: time
// the hypervisor steals stretches wall time but not CPU time. The scaled
// values are seconds at the reference box's speed; the raw ones are
// printed beside them.

// calibRefS and calibRefCPUS are the calibration kernel's median wall and
// CPU times on the reference box (see perfbench/README.md). They only fix
// the scale: any constants give the same ratios between runs.
const (
	calibRefS    = 0.5
	calibRefCPUS = 0.95
)

// Calibration kernel size per goroutine, for GOMAXPROCS = 2. Both halves
// of the program's profile are in it: allocation and GC churn over a live
// heap about the size of a workload's, and float math. Of the kernels
// tried, this mix tracked the host's drift best on all three batch
// workloads.
const (
	calibAllocs = 500_000
	calibLive   = 16384
	calibSins   = 1_500_000
)

// runCalib runs the calibration kernel once on GOMAXPROCS goroutines, with
// the work split between them, and reports its wall and CPU time. Every
// goroutine runs the same work, so their checksums must agree.
func runCalib() childResult {
	n := runtime.GOMAXPROCS(0)
	sums := make([]float64, n)
	reg, _ := beginRegion(0, "")
	var wg sync.WaitGroup //sslint:allow detgoroutine joins the calibration workers; each returns its own checksum
	for k := range sums {
		wg.Add(1)
		go func() { //sslint:allow detgoroutine calibration worker; it touches no simulation state
			defer wg.Done()
			sums[k] = calibKernel(2*calibAllocs/n, 2*calibSins/n)
		}()
	}
	wg.Wait()
	var res childResult
	res.WallS, res.CPUS = reg.end(nil)
	for _, s := range sums {
		if s != sums[0] || math.IsNaN(s) {
			res.fail("calibration checksums disagree: %v", sums)
			break
		}
	}
	return res
}

// calibKernel allocates allocs float slices of 64 to 319 elements, keeping
// up to calibLive of them live, then sums sins values of math.Sin, and
// returns a checksum of both.
func calibKernel(allocs, sins int) float64 {
	keep := make([][]float64, 0, calibLive+1)
	acc := 0.0
	for i := 0; i < allocs; i++ {
		b := make([]float64, 64+i%256)
		b[i%len(b)] = float64(i)
		keep = append(keep, b)
		if len(keep) > calibLive {
			keep = keep[:0]
		}
		acc += b[i%len(b)]
	}
	for i := 0; i < sins; i++ {
		acc += math.Sin(float64(i)*1e-3) * 1e-3
	}
	return acc
}
