// Command perfbench is DeCloud's benchmark: four seeded workloads driven
// through the program's public entry points, end-to-end metrics from an
// untraced run, per-layer metrics from a traced run, and output checks
// that fail the run. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload block-clear --seed 1 --seconds 18 --trace 0
//
// NOTES.md beside this file explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one (NOTES.md gives the
// per-workload meaning).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"orders_per_s", "1/s"},
	{"block_ms_p50", "ms"},
	{"block_ms_p90", "ms"},
	{"commit_s_p50", "s"},
	{"commit_s_p90", "s"},
	{"cpu_ms_per_korder", "ms"},
	{"matched_frac", "ratio"},
	{"welfare_share", "ratio"},
	{"utilization", "ratio"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// reach reads 0 there: that is the workload's no-change prediction.
var perLayer = []metricDef{
	{"host.steal_frac", "ratio"},
	{"trace.overhead_ms", "ms"},
	// block-clear: auction.Run split into its documented composition.
	{"match.index_ms", "ms"}, {"match.index_cpu_ms", "ms"},
	{"match.topk_scans", "count"},
	{"cluster.build_ms", "ms"}, {"cluster.build_cpu_ms", "ms"},
	{"cluster.clusters", "count"},
	{"auction.prepared_ms", "ms"}, {"auction.prepared_cpu_ms", "ms"},
	{"auction.prepass_ms", "ms"}, {"auction.auctions_ms", "ms"},
	{"auction.miniauctions", "count"},
	{"auction.reduced_frac", "ratio"},
	{"auction.alloc_mb_per_block", "MiB"},
	{"auction.gc_per_block", "count"},
	// metro-stream.
	{"metro.round_ms", "ms"}, {"metro.round_cpu_ms", "ms"},
	{"metro.spills", "count"}, {"metro.spill_matched", "count"}, {"metro.spill_expired", "count"},
	{"book.rescored", "count"},
	{"book.component_reuse_frac", "ratio"},
	{"book.live_orders", "count"},
	{"book.expired_frac", "ratio"},
	{"book.carried_out_frac", "ratio"},
	{"metro.alloc_mb_per_round", "MiB"},
	// futures-epochs: Exchange.Run split into its documented composition.
	{"futures.reserve_ms", "ms"}, {"futures.reserve_cpu_ms", "ms"},
	{"futures.deliver_ms", "ms"}, {"futures.deliver_cpu_ms", "ms"},
	{"futures.spotmarket_ms", "ms"}, {"futures.spotmarket_cpu_ms", "ms"},
	{"futures.record_ms", "ms"}, {"futures.record_cpu_ms", "ms"},
	{"auction.spot_clear_ms", "ms"}, {"auction.spot_clear_cpu_ms", "ms"},
	{"futures.reserved", "count"}, {"futures.bumped", "count"},
	{"futures.defaulted", "count"}, {"futures.noshow", "count"},
	{"futures.alloc_mb_per_round", "MiB"},
	// tcp-rounds, timed live around client and producer calls.
	{"sealed.seal_us", "us"}, {"sealed.seal_cpu_us", "us"},
	{"p2p.publish_us", "us"}, {"p2p.publish_cpu_us", "us"},
	{"p2p.intake_ms", "ms"}, {"p2p.intake_cpu_ms", "ms"},
	{"p2p.produce_ms", "ms"}, {"p2p.produce_cpu_ms", "ms"},
	{"p2p.reveal_attempts", "count"}, {"p2p.unrevealed", "count"}, {"p2p.bad_votes", "count"},
	// tcp-rounds, replayed off the clock on each committed block.
	{"p2p.block_marshal_ms", "ms"}, {"p2p.block_marshal_cpu_ms", "ms"},
	{"p2p.block_unmarshal_ms", "ms"}, {"p2p.block_unmarshal_cpu_ms", "ms"},
	{"ledger.validate_ms", "ms"}, {"ledger.validate_cpu_ms", "ms"},
	{"miner.decrypt_ms", "ms"}, {"miner.decrypt_cpu_ms", "ms"},
	{"auction.clear_ms", "ms"}, {"auction.clear_cpu_ms", "ms"},
	{"ledger.encode_ms", "ms"}, {"ledger.encode_cpu_ms", "ms"},
	{"miner.verify_ms", "ms"}, {"miner.verify_cpu_ms", "ms"},
	{"p2p.wait_ms", "ms"},
}

// report is one run's result. Values are keyed by metric name; n is the
// number of samples behind each, printed beside it.
type report struct {
	attempted, failed int
	fail              failure
	values            map[string]float64
	samples           map[string]int
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

type workloadFunc func(o opts, r *report) error

var workloads = map[string]workloadFunc{
	"block-clear":    runBlockClear,
	"metro-stream":   runMetroStream,
	"futures-epochs": runFuturesEpochs,
	"tcp-rounds":     runTCPRounds,
}

type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "block-clear | metro-stream | futures-epochs | tcp-rounds")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every input is derived from it")
	flag.Float64Var(&o.seconds, "seconds", 18, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o opts) error {
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := checkManifest("BENCHMARK.json"); err != nil {
		return err
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d nproc=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	r := newReport()
	if err := fn(o, r); err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	printTable(r)
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{r.fail.ok() && r.failed == 0, r.attempted, r.failed, map[string]json.RawMessage{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !o.trace {
			r.fail.add("end-to-end metric %s was not measured", d.name)
			v = math.NaN()
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail.add("metric %s is %v", d.name, v)
			out.Correct = false
			v = 0
		}
		raw, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, d.unit})
		if err != nil {
			return err
		}
		out.Metrics[d.name] = raw
	}
	for _, m := range r.fail.msgs {
		fmt.Println("CHECK FAILED:", m)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
	return nil
}

// printTable prints every value the run measured with its sample count.
func printTable(r *report) {
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g  n=%d\n", n, r.values[n], r.samples[n])
	}
	fmt.Printf("  attempted=%d failed=%d\n", r.attempted, r.failed)
}

// checkManifest fails the run when BENCHMARK.json, which sits beside the
// benchmark in its checkout, names different metrics or units than this
// program reports.
func checkManifest(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read manifest: %w", err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("parse manifest: %w", err)
	}
	same := func(got []struct{ Name, Unit string }, want []metricDef) bool {
		return slices.EqualFunc(got, want, func(g struct{ Name, Unit string }, w metricDef) bool {
			return g.Name == w.name && g.Unit == w.unit
		})
	}
	if !same(m.EndToEnd, endToEnd) || !same(m.PerLayer, perLayer) {
		return errors.New("BENCHMARK.json metrics differ from the ones perfbench reports")
	}
	return nil
}
