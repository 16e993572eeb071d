package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
type span struct {
	Name   string `json:"name"`
	Block  int    `json:"block"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
	who    int
	cpu0   time.Duration
}

// tracer holds spans in memory until the run ends. Safe for concurrent
// use: tcp-rounds records seal and publish spans from two goroutines.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts []blockCounts // one entry per traced block or round
}

// blockCounts are per-block values counted at the same boundaries as the
// spans: work done, outcomes, allocation.
type blockCounts map[string]float64

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span whose CPU time is the whole process's (who =
// rusageSelf) or the calling, thread-locked goroutine's
// (rusageThread) and returns its id.
func (t *tracer) begin(name string, block, parent, who int) int {
	c := cpuTime(who)
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Block: block, Parent: parent, Start: now, who: who, cpu0: c})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	who, cpu0 := t.spans[id].who, t.spans[id].cpu0
	t.mu.Unlock()
	c := cpuTime(who)
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].CPU = int64(c - cpu0)
}

// call records f as one span of the process.
func (t *tracer) call(name string, block, parent int, f func()) {
	id := t.begin(name, block, parent, rusageSelf)
	f()
	t.end(id)
}

// callThread records f as one span timed on the calling goroutine's
// locked OS thread, for calls that run concurrently with others.
func (t *tracer) callThread(name string, block int, f func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	id := t.begin(name, block, -1, rusageThread)
	f()
	t.end(id)
}

// durations returns every span of name's wall and CPU time in ms.
func (t *tracer) durations(name string) (wall, cpu []float64) {
	for _, s := range t.spans {
		if s.Name == name {
			wall = append(wall, float64(s.End-s.Start)/1e6)
			cpu = append(cpu, float64(s.CPU)/1e6)
		}
	}
	return wall, cpu
}

// byBlock returns name's wall time in ms per block id.
func (t *tracer) byBlock(name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Block] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// layerSummary is one span name's aggregate: medians over its spans of
// wall, CPU and self time (wall minus the time its child spans cover).
type layerSummary struct {
	Name      string  `json:"name"`
	Spans     int     `json:"spans"`
	WallMS    float64 `json:"wall_ms_p50"`
	CPUMS     float64 `json:"cpu_ms_p50"`
	SelfMS    float64 `json:"self_ms_p50"`
	TotalWall float64 `json:"wall_ms_total"`
}

func (t *tracer) summaries() []layerSummary {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type acc struct{ wall, cpu, self []float64 }
	by := map[string]*acc{}
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.wall = append(a.wall, float64(s.End-s.Start)/1e6)
		a.cpu = append(a.cpu, float64(s.CPU)/1e6)
		a.self = append(a.self, float64(s.End-s.Start-child[i])/1e6)
	}
	var out []layerSummary
	for name, a := range by {
		var total float64
		for _, w := range a.wall {
			total += w
		}
		out = append(out, layerSummary{name, len(a.wall), median(a.wall), median(a.cpu), median(a.self), total})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans and their per-layer summary as JSON under dir.
func (t *tracer) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".json")
	data, err := json.Marshal(struct {
		Layers []layerSummary `json:"layers"`
		Spans  []span         `json:"spans"`
	}{t.summaries(), slices.Clip(t.spans)})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// setSpan reports the median wall and CPU time of span name in ms.
func setSpan(r *report, tr *tracer, name, wallKey, cpuKey string) {
	wall, cpu := tr.durations(name)
	r.set(wallKey, median(wall), len(wall))
	r.set(cpuKey, median(cpu), len(cpu))
}

// setCounts reports each per-block count as its mean over blocks.
func setCounts(r *report, tr *tracer) {
	sums := map[string]float64{}
	for _, c := range tr.counts {
		for k, v := range c {
			sums[k] += v
		}
	}
	for k, v := range sums {
		r.set(k, v/float64(len(tr.counts)), len(tr.counts))
	}
}

// writeTrace writes the spans under the build directory of the checkout.
func writeTrace(tr *tracer, o opts) error {
	path, err := tr.write(filepath.Join(".bench_build", "perfbench-traces"),
		fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	for _, l := range tr.summaries() {
		fmt.Printf("  span %-22s n=%-6d wall_p50=%.4fms cpu_p50=%.4fms self_p50=%.4fms total=%.1fms\n",
			l.Name, l.Spans, l.WallMS, l.CPUMS, l.SelfMS, l.TotalWall)
	}
	return nil
}

// compareDigests fails the run unless the traced pass reproduced the
// untraced pass's outcomes over the blocks both ran.
func compareDigests(r *report, what string, untraced, traced [][32]byte) {
	n := min(len(untraced), len(traced))
	if n == 0 {
		r.fail.add("%s: no blocks to compare between traced and untraced passes", what)
	}
	for i := 0; i < n; i++ {
		if untraced[i] != traced[i] {
			r.fail.add("%s block %d: traced outcome differs from the untraced one", what, i)
			return
		}
	}
	fmt.Printf("checks: %s traced and untraced digests identical over %d blocks\n", what, n)
}
