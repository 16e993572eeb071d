package paralleltest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/match"
	"decloud/internal/reputation"
	"decloud/internal/resource"
	"decloud/internal/workload"
)

// TestEquivalenceRandomizedMarkets is the acceptance property of the
// parallel mode: across ≥ 50 randomized markets — varying size,
// flexibility, geography, client grouping, and every mechanism config
// axis — the Outcome at workers ∈ {1, 2, 4, GOMAXPROCS} is
// byte-identical to the sequential run. Run it under -race to also
// exercise the memory model, not just the values.
func TestEquivalenceRandomizedMarkets(t *testing.T) {
	counts := append([]int{1}, WorkerCounts()...)
	trials := 56
	if testing.Short() {
		trials = 12
	}
	for seed := 0; seed < trials; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			wcfg := workload.Config{
				Seed:     int64(1000 + seed),
				Requests: 24 + (seed%5)*18,
			}
			if seed%3 == 1 {
				wcfg.Flexibility = 0.8
			}
			if seed%5 == 2 {
				wcfg.GeoRadius = 0.4
			}
			if seed%7 == 3 {
				wcfg.RequestsPerClient = 3
			}
			m := workload.Generate(wcfg)

			cfg := auction.DefaultConfig()
			cfg.Evidence = []byte(fmt.Sprintf("equiv-evidence-%d", seed))
			switch seed % 4 {
			case 1:
				cfg.ExactScheduling = true
			case 2:
				cfg.StrictReduction = true
			case 3:
				// Reputation-gated variant: some providers demand a
				// minimum client reputation and some clients have a
				// denial history, so the concurrent pre-passes hit the
				// shared reputation store's read path.
				rep := reputation.NewStore()
				for i, o := range m.Offers {
					if i%3 == 0 {
						o.MinReputation = 0.85
					}
				}
				for i, r := range m.Requests {
					if i%4 == 0 {
						rep.RecordDeny(r.Client)
					}
				}
				cfg.Reputation = rep
			}
			Assert(t, m.Requests, m.Offers, cfg, counts)
		})
	}
}

// TestShardedEquivalenceRandomizedMarkets is the acceptance property of
// the sharded executor: across ≥ 50 randomized markets — the same
// size/flexibility/geography/config axes as the worker sweep, on
// disjoint seeds — clearing at K ∈ {1, 2, 4, 8} shards × workers
// {1, 4} is byte-identical to the pre-shard monolithic path, and the
// attached shard statistics conserve every order. Run under -race the
// shard fan-out also exercises the memory model.
func TestShardedEquivalenceRandomizedMarkets(t *testing.T) {
	trials := 56
	if testing.Short() {
		trials = 12
	}
	for seed := 0; seed < trials; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			wcfg := workload.Config{
				Seed:     int64(9000 + seed),
				Requests: 24 + (seed%5)*18,
			}
			if seed%3 == 1 {
				wcfg.Flexibility = 0.8
			}
			if seed%5 == 2 {
				wcfg.GeoRadius = 0.4
			}
			if seed%7 == 3 {
				wcfg.RequestsPerClient = 3
			}
			m := workload.Generate(wcfg)

			cfg := auction.DefaultConfig()
			cfg.Evidence = []byte(fmt.Sprintf("shard-evidence-%d", seed))
			switch seed % 4 {
			case 1:
				cfg.ExactScheduling = true
			case 2:
				cfg.StrictReduction = true
			case 3:
				rep := reputation.NewStore()
				for i, o := range m.Offers {
					if i%3 == 0 {
						o.MinReputation = 0.85
					}
				}
				for i, r := range m.Requests {
					if i%4 == 0 {
						rep.RecordDeny(r.Client)
					}
				}
				cfg.Reputation = rep
			}
			AssertShardedVsMonolithic(t, m.Requests, m.Offers, cfg, nil, nil)
		})
	}
}

// TestShardedEquivalenceDegenerate points the sharded-vs-monolithic
// oracle at the blocks most likely to trip the partitioner: empty and
// one-sided blocks (no clusters, so everything is unclustered), and a
// block with invalid orders rejected before partitioning.
func TestShardedEquivalenceDegenerate(t *testing.T) {
	m := workload.Generate(workload.Config{Seed: 7, Requests: 20})
	cfg := auction.DefaultConfig()
	cfg.Evidence = []byte("shard-degenerate")

	AssertShardedVsMonolithic(t, nil, nil, cfg, nil, nil)
	AssertShardedVsMonolithic(t, m.Requests, nil, cfg, nil, nil)
	AssertShardedVsMonolithic(t, nil, m.Offers, cfg, nil, nil)

	reqs := append([]*bidding.Request(nil), m.Requests...)
	for i := 0; i < len(reqs); i += 5 {
		bad := *reqs[i]
		bad.Resources = nil
		reqs[i] = &bad
	}
	AssertShardedVsMonolithic(t, reqs, m.Offers, cfg, nil, nil)
}

// TestEquivalenceIndexedVsNaive is the acceptance property of the
// indexed matching engine: across the same ≥ 50 randomized markets as
// the worker sweep, the production pipeline (kind bitmasks, time-bucket
// pruning, bounded top-k, dense economics) produces Outcomes
// byte-identical to the brute-force reference pipeline, at workers
// ∈ {1, 2, 4}. Distinct seed offsets keep the markets disjoint from the
// worker-sweep test so the two properties don't share blind spots.
func TestEquivalenceIndexedVsNaive(t *testing.T) {
	counts := []int{1, 2, 4}
	trials := 56
	if testing.Short() {
		trials = 12
	}
	for seed := 0; seed < trials; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			wcfg := workload.Config{
				Seed:     int64(5000 + seed),
				Requests: 24 + (seed%5)*18,
			}
			if seed%3 == 1 {
				wcfg.Flexibility = 0.8
			}
			if seed%5 == 2 {
				wcfg.GeoRadius = 0.4
			}
			if seed%7 == 3 {
				wcfg.RequestsPerClient = 3
			}
			m := workload.Generate(wcfg)

			cfg := auction.DefaultConfig()
			cfg.Evidence = []byte(fmt.Sprintf("indexed-evidence-%d", seed))
			switch seed % 4 {
			case 1:
				cfg.ExactScheduling = true
			case 2:
				cfg.StrictReduction = true
			case 3:
				rep := reputation.NewStore()
				for i, o := range m.Offers {
					if i%3 == 0 {
						o.MinReputation = 0.85
					}
				}
				for i, r := range m.Requests {
					if i%4 == 0 {
						rep.RecordDeny(r.Client)
					}
				}
				cfg.Reputation = rep
			}
			AssertIndexedVsNaive(t, m.Requests, m.Offers, cfg, counts)
		})
	}
}

// TestEquivalenceIndexedDegenerate points the indexed-vs-naive oracle at
// the blocks most likely to trip index construction: empty and one-sided
// blocks, and a block with invalid orders the screening pass rejects
// before the index is built.
func TestEquivalenceIndexedDegenerate(t *testing.T) {
	m := workload.Generate(workload.Config{Seed: 7, Requests: 20})
	cfg := auction.DefaultConfig()
	cfg.Evidence = []byte("indexed-degenerate")

	AssertIndexedVsNaive(t, nil, nil, cfg, nil)
	AssertIndexedVsNaive(t, m.Requests, nil, cfg, nil)
	AssertIndexedVsNaive(t, nil, m.Offers, cfg, nil)

	reqs := append([]*bidding.Request(nil), m.Requests...)
	for i := 0; i < len(reqs); i += 5 {
		bad := *reqs[i]
		bad.Resources = nil
		reqs[i] = &bad
	}
	AssertIndexedVsNaive(t, reqs, m.Offers, cfg, nil)
}

// TestEquivalenceDegenerateBlocks covers the edges the randomized sweep
// can miss: empty blocks, one-sided blocks, and blocks containing
// invalid orders that the screening pass must reject identically.
func TestEquivalenceDegenerateBlocks(t *testing.T) {
	m := workload.Generate(workload.Config{Seed: 7, Requests: 20})
	cfg := auction.DefaultConfig()
	cfg.Evidence = []byte("degenerate")

	Assert(t, nil, nil, cfg, nil)
	Assert(t, m.Requests, nil, cfg, nil)
	Assert(t, nil, m.Offers, cfg, nil)

	// Invalidate a slice of orders (empty resources fail validation).
	reqs := append([]*bidding.Request(nil), m.Requests...)
	for i := 0; i < len(reqs); i += 5 {
		bad := *reqs[i]
		bad.Resources = nil
		reqs[i] = &bad
	}
	Assert(t, reqs, m.Offers, cfg, nil)
}

// TestEquivalenceGreedyBenchmark pins the benchmark pipeline too: the
// greedy allocator shares the parallel scoring and pre-pass stages, so
// its outcome must be worker-count-invariant as well.
func TestEquivalenceGreedyBenchmark(t *testing.T) {
	m := workload.Generate(workload.Config{Seed: 11, Requests: 90})
	for _, w := range WorkerCounts() {
		seq := auction.DefaultConfig()
		seq.Workers = 0
		want, err := MarshalOutcome(auction.RunGreedy(m.Requests, m.Offers, seq))
		if err != nil {
			t.Fatal(err)
		}
		cur := seq
		cur.Workers = w
		got, err := MarshalOutcome(auction.RunGreedy(m.Requests, m.Offers, cur))
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Fatalf("greedy benchmark diverges at workers=%d: %s", w, diffSummary(want, got))
		}
	}
}

// TestCheckDetectsDivergence makes sure the harness itself can fail:
// comparing outcomes of two different blocks must produce a diff, so a
// silently-green harness bug cannot hide a real divergence.
func TestCheckDetectsDivergence(t *testing.T) {
	a := workload.Generate(workload.Config{Seed: 1, Requests: 30})
	b := workload.Generate(workload.Config{Seed: 2, Requests: 30})
	cfg := auction.DefaultConfig()
	outA, err := MarshalOutcome(auction.Run(a.Requests, a.Offers, cfg))
	if err != nil {
		t.Fatal(err)
	}
	outB, err := MarshalOutcome(auction.Run(b.Requests, b.Offers, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if string(outA) == string(outB) {
		t.Fatal("distinct markets marshaled identically — harness cannot detect anything")
	}
	if s := diffSummary(outA, outB); s == "" {
		t.Fatal("empty diff summary for differing outcomes")
	}
}

// wideMarket builds a block over nkinds > 64 resource kinds, so the
// index's kind masks span several words. Each offer sells 6–20 random
// kinds; each request asks for 2–5 kinds of one offer at up to 1.3× its
// quantity, and every other request is flexible, so grants are often
// partial and the φ sums run over several kinds.
func wideMarket(seed int64, nreq, noff, nkinds int) ([]*bidding.Request, []*bidding.Offer) {
	rng := rand.New(rand.NewSource(seed))
	kind := func(i int) resource.Kind { return resource.Kind(fmt.Sprintf("w%03d", i)) }
	offs := make([]*bidding.Offer, noff)
	for i := range offs {
		v := make(resource.Vector)
		for n := 6 + rng.Intn(15); len(v) < n; {
			v[kind(rng.Intn(nkinds))] = 4 + float64(rng.Intn(13))
		}
		start := int64(rng.Intn(20))
		offs[i] = &bidding.Offer{
			ID:        bidding.OrderID(fmt.Sprintf("o%03d", i)),
			Provider:  bidding.ParticipantID(fmt.Sprintf("p%03d", i%(noff/2+1))),
			Resources: v,
			Start:     start, End: start + 100 + int64(rng.Intn(100)),
			Bid:       1 + rng.Float64()*20,
			Submitted: int64(rng.Intn(5)),
		}
	}
	reqs := make([]*bidding.Request, nreq)
	for i := range reqs {
		host := offs[rng.Intn(noff)].Resources
		kinds := host.Kinds()
		v := make(resource.Vector)
		for n := 2 + rng.Intn(4); len(v) < n && len(v) < len(kinds); {
			k := kinds[rng.Intn(len(kinds))]
			v[k] = host[k] * (0.2 + 1.1*rng.Float64())
		}
		start := int64(20 + rng.Intn(20))
		dur := int64(20 + rng.Intn(50))
		r := &bidding.Request{
			ID:        bidding.OrderID(fmt.Sprintf("r%03d", i)),
			Client:    bidding.ParticipantID(fmt.Sprintf("c%03d", i%(nreq/3+1))),
			Resources: v,
			Start:     start, End: start + dur + int64(rng.Intn(20)), Duration: dur,
			Bid:       5 + rng.Float64()*60,
			Submitted: int64(rng.Intn(5)),
		}
		if i%2 == 1 {
			r.Flexibility = 0.5 + 0.4*rng.Float64()
		}
		reqs[i] = r
	}
	return reqs, offs
}

// TestEquivalenceIndexedVsNaiveWideKinds runs the indexed-vs-naive
// oracle over wide markets (more than 64 kinds, multi-word masks) with
// flexible requests: the dense tracker's multi-word grant and commit
// walk and its φ accumulation must match the map Tracker byte for byte
// through the whole mechanism.
func TestEquivalenceIndexedVsNaiveWideKinds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		reqs, offs := wideMarket(seed, 120, 16, 140)
		if nw := match.NewIndex(reqs, offs, match.BlockScale(reqs, offs)).MaskWords(); nw < 2 {
			t.Fatalf("seed %d: market spans %d mask word(s), want a wide block", seed, nw)
		}
		cfg := auction.DefaultConfig()
		cfg.Evidence = []byte(fmt.Sprintf("wide-%d", seed))
		if seed%2 == 1 {
			cfg.StrictReduction = true
		}
		out := auction.Run(reqs, offs, cfg)
		partial := 0
		for _, m := range out.Matches {
			if !m.Granted.Equal(m.Request.Resources) {
				partial++
			}
		}
		if len(out.Matches) == 0 || partial == 0 {
			t.Fatalf("seed %d: %d trades, %d partial — the market must exercise flexible grants", seed, len(out.Matches), partial)
		}
		AssertIndexedVsNaive(t, reqs, offs, cfg, []int{2, 4})
	}
}

// TestEquivalenceIndexedVsNaiveZeroGrants runs the oracle over markets
// where every fourth request has Flexibility 1e-12, so once an earlier
// grant uses up one of its kinds on an offer it is still granted there
// with that kind at 0. φ must leave such kinds out exactly as Fraction
// does, through payments, pre-pass welfare and the greedy ranking, on
// single-word (40 kinds) and multi-word (140 kinds) blocks.
func TestEquivalenceIndexedVsNaiveZeroGrants(t *testing.T) {
	zeroGrants := 0
	for seed := int64(0); seed < 8; seed++ {
		nkinds := 40 // wideMarket offers sell up to 20 distinct kinds
		if seed%2 == 1 {
			nkinds = 140
		}
		reqs, offs := wideMarket(100+seed, 120, 16, nkinds)
		for i := 3; i < len(reqs); i += 4 {
			reqs[i].Flexibility = 1e-12
		}
		cfg := auction.DefaultConfig()
		cfg.Evidence = []byte(fmt.Sprintf("zero-%d", seed))
		for _, m := range auction.Run(reqs, offs, cfg).Matches {
			for k, g := range m.Granted {
				if g == 0 && m.Offer.Resources[k] > 0 {
					zeroGrants++
				}
			}
		}
		AssertIndexedVsNaive(t, reqs, offs, cfg, []int{2, 4})
		ref := cfg
		ref.Match.Reference = true
		want, err := MarshalOutcome(auction.RunGreedy(reqs, offs, ref))
		if err != nil {
			t.Fatal(err)
		}
		got, err := MarshalOutcome(auction.RunGreedy(reqs, offs, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("seed %d: dense RunGreedy diverges from the map Tracker: %s", seed, diffSummary(want, got))
		}
	}
	if zeroGrants == 0 {
		t.Fatal("no trade was granted 0 of a kind its offer provides: the markets must exercise zero grants")
	}
}
