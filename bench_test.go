package decloud

import (
	"fmt"
	"runtime"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/book"
	"decloud/internal/experiments"
	"decloud/internal/obs"
	"decloud/internal/workload"
)

// Figure-regeneration benchmarks: one per panel of the paper's Figure 5.
// They measure how long a reduced-size reproduction of each figure takes
// and report the headline reproduced quantity as a benchmark metric so a
// regression in the economics shows up next to a regression in speed.

func scaleSweepForBench() []experiments.ScalePoint {
	return experiments.RunScaleSweep(experiments.ScaleConfig{
		Sizes: []int{25, 100, 400}, Reps: 2, Seed: 42, LoessSpan: 0.8,
	})
}

func flexSweepForBench() []experiments.FlexPoint {
	// Supply:demand mirrors DefaultFlexConfig's ratio (170:200): the
	// flexibility effect needs idle lower-class capacity to exist.
	return experiments.RunFlexSweep(experiments.FlexConfig{
		Skews:      []float64{0, 0.45, 0.9},
		FlexLevels: []float64{1.0, 0.8},
		Requests:   120, Providers: 102, Reps: 3, Seed: 42,
	})
}

// BenchmarkFig5a regenerates the welfare-vs-market-size panel.
func BenchmarkFig5a(b *testing.B) {
	var welfareAt400 float64
	for i := 0; i < b.N; i++ {
		points := scaleSweepForBench()
		tbl := experiments.Fig5a(points, 0.8)
		if len(tbl.Rows) == 0 {
			b.Fatal("empty figure")
		}
		for _, p := range points {
			if p.Requests == 400 {
				welfareAt400 += p.DeCloud
			}
		}
	}
	b.ReportMetric(welfareAt400/float64(b.N*2), "welfare@400req")
}

// BenchmarkFig5b regenerates the welfare-ratio panel.
func BenchmarkFig5b(b *testing.B) {
	var ratio float64
	var n int
	for i := 0; i < b.N; i++ {
		points := scaleSweepForBench()
		if len(experiments.Fig5b(points, 0.8).Rows) == 0 {
			b.Fatal("empty figure")
		}
		for _, p := range points {
			if p.Requests == 400 && p.Ratio > 0 {
				ratio += p.Ratio
				n++
			}
		}
	}
	if n > 0 {
		b.ReportMetric(ratio/float64(n), "welfare_ratio@400req")
	}
}

// BenchmarkFig5c regenerates the reduced-trades panel.
func BenchmarkFig5c(b *testing.B) {
	var reduced float64
	var n int
	for i := 0; i < b.N; i++ {
		points := scaleSweepForBench()
		if len(experiments.Fig5c(points, 0.8).Rows) == 0 {
			b.Fatal("empty figure")
		}
		for _, p := range points {
			if p.Requests == 400 {
				reduced += p.ReducedPct
				n++
			}
		}
	}
	if n > 0 {
		b.ReportMetric(reduced/float64(n), "reduced_pct@400req")
	}
}

// BenchmarkFig5d regenerates the satisfaction panel (inflexible vs 80%).
func BenchmarkFig5d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig5d(flexSweepForBench()).Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig5e regenerates the satisfaction-by-flexibility panel.
func BenchmarkFig5e(b *testing.B) {
	var satGain float64
	for i := 0; i < b.N; i++ {
		points := flexSweepForBench()
		if len(experiments.Fig5e(points).Rows) == 0 {
			b.Fatal("empty figure")
		}
		// Reproduced effect: flexible minus inflexible satisfaction at
		// the highest divergence.
		var flexSat, inflexSat float64
		for _, p := range points {
			if p.Skew == 0.9 {
				if p.Flexibility == 0.8 {
					flexSat = p.Satisfaction.Mean
				}
				if p.Flexibility == 1.0 {
					inflexSat = p.Satisfaction.Mean
				}
			}
		}
		satGain += flexSat - inflexSat
	}
	b.ReportMetric(satGain/float64(b.N), "flex_sat_gain@skew0.9")
}

// BenchmarkFig5f regenerates the welfare-by-flexibility panel.
func BenchmarkFig5f(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig5f(flexSweepForBench()).Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// Mechanism microbenchmarks: the auction itself at several market sizes.

// layerUnits names the block layers a mechanism benchmark row reports.
var layerUnits = [4]string{"index_ms", "cluster_ms", "prepass_ms", "auctions_ms"}

// layerMark is the state of a mechanism bundle's phase histograms, in
// layerUnits order.
type layerMark [4]obs.HistogramSnapshot

func markLayers(mm *obs.MechanismMetrics) layerMark {
	return layerMark{
		mm.IndexSeconds.Snapshot(), mm.ClusterSeconds.Snapshot(),
		mm.PrepassSeconds.Snapshot(), mm.AuctionsSeconds.Snapshot(),
	}
}

// reportLayers adds the block's layer split to a benchmark row: the mean
// per-clear index, cluster, prepass and auctions wall time in ms that
// the bundle recorded since the mark.
func reportLayers(b *testing.B, mm *obs.MechanismMetrics, since layerMark) {
	now := markLayers(mm)
	for i, unit := range layerUnits {
		if n := now[i].Count - since[i].Count; n > 0 {
			b.ReportMetric(1e3*(now[i].Sum-since[i].Sum)/float64(n), unit)
		}
	}
}

func benchmarkMechanism(b *testing.B, n int) {
	market := workload.Generate(workload.Config{Seed: 1, Requests: n})
	cfg := auction.DefaultConfig()
	cfg.Evidence = []byte("bench")
	cfg.Obs = obs.NewMechanismMetrics(obs.NewRegistry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := auction.Run(market.Requests, market.Offers, cfg)
		if len(out.Matches) == 0 {
			b.Fatal("no trades")
		}
	}
	b.StopTimer()
	reportLayers(b, cfg.Obs, layerMark{})
}

func BenchmarkMechanism100(b *testing.B)  { benchmarkMechanism(b, 100) }
func BenchmarkMechanism400(b *testing.B)  { benchmarkMechanism(b, 400) }
func BenchmarkMechanism1000(b *testing.B) { benchmarkMechanism(b, 1000) }

// benchmarkMechanismWorkers pins the worker count explicitly so the
// sequential/parallel pairs below are comparable regardless of what
// DefaultConfig resolves GOMAXPROCS to on the benchmark host.
func benchmarkMechanismWorkers(b *testing.B, n, workers int) {
	market := workload.Generate(workload.Config{Seed: 1, Requests: n})
	cfg := auction.DefaultConfig()
	cfg.Evidence = []byte("bench")
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := auction.Run(market.Requests, market.Offers, cfg)
		if len(out.Matches) == 0 {
			b.Fatal("no trades")
		}
	}
}

// Sequential vs parallel mechanism pairs: same markets, worker count as
// the only variable. Compare with
//
//	go test -bench 'BenchmarkMechanism(Sequential|Parallel)' -run ^$ .
func BenchmarkMechanismSequential400(b *testing.B) { benchmarkMechanismWorkers(b, 400, 1) }
func BenchmarkMechanismSequential1000(b *testing.B) {
	benchmarkMechanismWorkers(b, 1000, 1)
}
func BenchmarkMechanismParallel400(b *testing.B) {
	benchmarkMechanismWorkers(b, 400, runtime.GOMAXPROCS(0))
}
func BenchmarkMechanismParallel1000(b *testing.B) {
	benchmarkMechanismWorkers(b, 1000, runtime.GOMAXPROCS(0))
}

// benchmarkMechanismSharded pins the shard count (Workers fixed at
// GOMAXPROCS) so the K=1/K=4 pair below isolates the partitioner's
// scheduling cost — outcomes are byte-identical at any K.
func benchmarkMechanismSharded(b *testing.B, n, shards int) {
	market := workload.Generate(workload.Config{Seed: 1, Requests: n})
	cfg := auction.DefaultConfig()
	cfg.Evidence = []byte("bench")
	cfg.Shards = shards
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := auction.Run(market.Requests, market.Offers, cfg)
		if len(out.Matches) == 0 {
			b.Fatal("no trades")
		}
	}
}

// Sharded mechanism pair: shard count as the only variable. Compare with
//
//	go test -bench 'BenchmarkMechanismSharded' -run ^$ .
func BenchmarkMechanismSharded1000K1(b *testing.B) { benchmarkMechanismSharded(b, 1000, 1) }
func BenchmarkMechanismSharded1000K4(b *testing.B) { benchmarkMechanismSharded(b, 1000, 4) }

// BenchmarkGreedyBenchmark400 measures the non-truthful baseline.
func BenchmarkGreedyBenchmark400(b *testing.B) {
	market := workload.Generate(workload.Config{Seed: 1, Requests: 400})
	cfg := auction.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := auction.RunGreedy(market.Requests, market.Offers, cfg)
		if len(out.Matches) == 0 {
			b.Fatal("no trades")
		}
	}
}

// BenchmarkProtocolRound measures one full two-phase round: sealing,
// mining (8-bit PoW), reveal, allocation, verification, agreement.
func BenchmarkProtocolRound(b *testing.B) {
	market := workload.Generate(workload.Config{Seed: 2, Requests: 25})
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := SimConfig{Mode: SimLedger, Rounds: 1, Miners: 2, Difficulty: 8,
			Workload: MarketConfig{Seed: int64(i), Requests: 25}}
		b.StartTimer()
		res, err := Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds[0].Matches == 0 {
			b.Fatal("no trades")
		}
	}
	_ = market
}

// BenchmarkSealedBidRoundTrip measures the cryptographic envelope path.
func BenchmarkSealedBidRoundTrip(b *testing.B) {
	p, err := NewParticipant(nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := &Request{
			ID:        OrderID(fmt.Sprintf("r%d", i)),
			Resources: Vector{CPU: 2, RAM: 8},
			Start:     0, End: 100, Duration: 50, Bid: 1,
		}
		if _, err := p.SubmitRequest(r); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks: the design-choice studies DESIGN.md calls out.

// BenchmarkAblationReduction compares pooled vs per-cluster trade
// reduction; the reported metric is the welfare-ratio gap between them.
func BenchmarkAblationReduction(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		points := experiments.RunReductionAblation([]int{100}, 2, 42)
		var pooled, strict float64
		for _, p := range points {
			switch p.Variant {
			case "pooled":
				pooled = p.Ratio
			case "strict":
				strict = p.Ratio
			}
		}
		gap += pooled - strict
	}
	b.ReportMetric(gap/float64(b.N), "pooled_minus_strict_ratio")
}

// BenchmarkAblationBand compares quality-band widths for flexible
// clients; the reported metric is the satisfaction gain of the wide band.
func BenchmarkAblationBand(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		points := experiments.RunBandAblation([]float64{0.95, 0.5}, 80, 70, 2, 42)
		gain += points[1].Ratio - points[0].Ratio
	}
	b.ReportMetric(gain/float64(b.N), "wide_band_sat_gain")
}

// BenchmarkBookIncremental1000 is the incremental counterpart of
// BenchmarkMechanism1000: the same 1000-order market lives in a warm
// book (caches populated by one full clear), and each iteration prices
// one block of 50 fresh requests via Preview — a ≤10% dirty fraction.
// Preview rolls its admissions back, so every iteration re-runs the
// same incremental clear from the same state: only the 50 arrivals are
// rescored and only the clusters they join are re-solved. The ratio to
// BenchmarkMechanism1000 is the continuous-market win the book exists
// to deliver (acceptance floor: ≥2×).
func BenchmarkBookIncremental1000(b *testing.B) {
	market := workload.Generate(workload.Config{Seed: 1, Requests: 1000})
	cfg := auction.DefaultConfig()
	cfg.Incremental = true
	cfg.Obs = obs.NewMechanismMetrics(obs.NewRegistry())
	bk := book.New(cfg)
	for _, r := range market.Requests {
		bk.InsertRequest(r)
	}
	for _, o := range market.Offers {
		bk.InsertOffer(o)
	}
	// Warm clear without commit: Preview with no arrivals populates the
	// best-set and prepass caches but keeps all 1000 orders live.
	bk.Preview(nil, nil, []byte("bench-warm"))

	arrivals := workload.Generate(workload.Config{Seed: 2, Requests: 50}).Requests
	for i, r := range arrivals {
		r.ID = bidding.OrderID(fmt.Sprintf("arr%04d", i)) // distinct from the resident market's IDs
	}
	// Prime with one loop-identical Preview: the first arrival clear
	// rebuilds component caches the empty warm clear didn't touch
	// (~6× a steady iteration's allocations). Paying it untimed makes
	// every timed iteration start from the same post-rollback state, so
	// per-op cost no longer depends on b.N — which the ±5% min-of-N CI
	// gate requires.
	bk.Preview(arrivals, nil, []byte("bench"))
	untimed := markLayers(cfg.Obs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, _ := bk.Preview(arrivals, nil, []byte("bench"))
		if out == nil {
			b.Fatal("nil outcome")
		}
	}
	b.StopTimer()
	reportLayers(b, cfg.Obs, untimed)
}
