package main

import (
	"fmt"
	"runtime"
	"time"
)

// setups is how many times each run builds the system; setup_s is the
// median, so one slow build under host steal does not set it.
const setups = 7

// warmSeed seeds the warm clears of set-up. Set-up is the cost of
// bringing the program up, not of the measured workload, so its input is
// the same for every --seed and set-up times compare across seeds.
const warmSeed = 7919

// timedSetups builds the system setups times and returns the last build
// with the median set-up time in seconds. Every earlier build is closed.
func timedSetups[T any](build func(i int) (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setups; i++ {
		if i > 0 && closeFn != nil {
			closeFn(last)
		}
		// Collect the earlier set-ups' garbage off the clock, so that
		// no set-up pays for the one before it.
		runtime.GC()
		t0 := time.Now()
		v, err := build(i)
		if err != nil {
			return last, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// reportPhase sets the end-to-end metrics every measured phase yields.
func reportPhase(r *report, p *phase) {
	n := len(p.blockMS)
	r.set("orders_per_s", float64(p.orders)/p.wall.Seconds(), p.orders)
	r.set("block_ms_p50", median(p.blockMS), n)
	r.set("block_ms_p90", quantile(p.blockMS, 0.9), n)
	r.set("commit_s_p50", weightedQuantile(p.commitS, p.commitW, 0.5), p.orders)
	r.set("commit_s_p90", weightedQuantile(p.commitS, p.commitW, 0.9), p.orders)
	// p99 is printed but not reported: orders of one block commit
	// together, so it rests on the slowest one or two blocks.
	r.set("commit_s_p99", weightedQuantile(p.commitS, p.commitW, 0.99), p.orders)
	r.set("cpu_ms_per_korder", ms(p.cpu)/(float64(p.orders)/1000), p.orders)
	r.set("peak_heap_mb", float64(p.peakHeap)/(1<<20), n)
	r.set("host.steal_frac", p.stealFrac, 1)
	fmt.Printf("measured: %d blocks, %d orders, %.3fs on the clock (%.3fs real), steal %.4f of %d CPUs\n",
		n, p.orders, p.wall.Seconds(), p.realElapsed.Seconds(), p.stealFrac, runtime.NumCPU())
	if n < 100 {
		fmt.Printf("note: block_ms_p90 rests on %d blocks, fewer than the 100 that leave 10 beyond it\n", n)
	}
}

// setRatio sets a ratio metric, recording a failure when its base is 0
// (a ratio over nothing means the workload stopped exercising its layer).
func setRatio(r *report, name string, num, den float64, n int) {
	if den == 0 {
		r.fail.add("%s has a zero base", name)
	}
	r.set(name, num/den, n)
}

// tracedOverhead reports the traced − untraced block_ms_p50 difference.
func tracedOverhead(r *report, untraced, traced *phase) {
	u, t := median(untraced.blockMS), median(traced.blockMS)
	r.set("trace.overhead_ms", t-u, len(traced.blockMS))
	fmt.Printf("tracing overhead: block_ms_p50 traced %.4f - untraced %.4f = %.4f ms\n", t, u, t-u)
}
