package main

import (
	"fmt"

	"decloud/internal/auction"
	"decloud/internal/audit"
	"decloud/internal/cluster"
	"decloud/internal/match"
	"decloud/internal/obs"
	"decloud/internal/workload"
)

// block-clear shape: a ring of clearRing generated markets of
// clearRequests requests (and Requests/3 offers) each. One market's clear
// time varies by about ±8 % with its seed, so a run cycles through twelve
// to keep the seed-to-seed spread of its medians small.
const (
	clearRing     = 12
	clearRequests = 1000
)

// clearPass is one measured pass over the ring.
type clearPass struct {
	p       *phase
	digests [][32]byte // per block, when kept
	firstK  []clearBlock
}

type clearBlock struct {
	out *auction.Outcome
	m   *workload.Market
	ev  []byte
}

func runBlockClear(o opts, r *report) error {
	ring := make([]*workload.Market, clearRing)
	for i := range ring {
		ring[i] = workload.Generate(workload.Config{Seed: o.seed*100 + int64(i), Requests: clearRequests})
	}
	warm := workload.Generate(workload.Config{Seed: warmSeed, Requests: clearRequests})
	cfg, setupS, err := timedSetups(func(i int) (auction.Config, error) {
		cfg := auction.DefaultConfig()
		cfg.Evidence = evidenceFor(warmSeed, "warm", i)
		auction.Run(warm.Requests, warm.Offers, cfg)
		return cfg, nil
	}, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", setupS, setups)

	if !o.trace {
		pass := clearLoop(o, r, ring, cfg, o.seconds, nil, false)
		reportPhase(r, pass.p)
		clearChecks(r, pass)
		return nil
	}
	untraced := clearLoop(o, r, ring, cfg, o.seconds/2, nil, true)
	reportPhase(r, untraced.p)
	clearChecks(r, untraced)
	tr := newTracer()
	traced := clearLoop(o, r, ring, cfg, o.seconds/2, tr, true)
	compareDigests(r, "block-clear", untraced.digests, traced.digests)
	tracedOverhead(r, untraced.p, traced.p)
	r.set("host.steal_frac", (untraced.p.stealFrac+traced.p.stealFrac)/2, 2)
	clearLayers(r, tr)
	return writeTrace(tr, o)
}

// clearLoop clears the ring back to back until seconds are on the clock.
// With tr set, each block runs as NewIndex + BuildIndex + RunPrepared,
// the composition auction.Run documents, with a span around each call.
func clearLoop(o opts, r *report, ring []*workload.Market, cfg auction.Config, seconds float64, tr *tracer, keepDigests bool) *clearPass {
	pass := &clearPass{p: newPhase(2 * clearRing)}
	mm := obs.NewMechanismMetrics(obs.NewRegistry())
	for b := 0; !pass.p.done(seconds); b++ {
		m := ring[b%len(ring)]
		c := cfg
		c.Evidence = evidenceFor(o.seed, "block", b)
		orders := len(m.Requests) + len(m.Offers)
		var out *auction.Outcome
		pass.p.begin()
		if tr == nil {
			out = auction.Run(m.Requests, m.Offers, c)
		} else {
			out = tracedClear(tr, b, m, c, mm)
		}
		pass.p.block(pass.p.end(orders), orders)

		r.attempted += orders
		r.failed += len(out.RejectedRequests) + len(out.RejectedOffers)
		if v := audit.Outcome(m.Requests, m.Offers, out); len(v) > 0 {
			r.fail.add("block-clear block %d: %d audit violations, first %v", b, len(v), v[0])
			r.failed += orders
		}
		if keepDigests {
			d, err := digest(out)
			if err != nil {
				r.fail.add("block %d: encode outcome: %v", b, err)
			}
			pass.digests = append(pass.digests, d)
		}
		if b < len(ring) {
			pass.firstK = append(pass.firstK, clearBlock{out, m, c.Evidence})
		}
	}
	pass.p.finish()
	return pass
}

func tracedClear(tr *tracer, b int, m *workload.Market, c auction.Config, mm *obs.MechanismMetrics) *auction.Outcome {
	reqs, offs := m.Requests, m.Offers
	mem0 := readMem()
	pre0, auc0 := mm.PrepassSeconds.Snapshot().Sum, mm.AuctionsSeconds.Snapshot().Sum
	blk := tr.begin("block", b, -1, rusageSelf)
	var ix *match.Index
	tr.call("match.index", b, blk, func() { ix = match.NewIndex(reqs, offs, match.BlockScale(reqs, offs)) })
	var cls []*cluster.Cluster
	tr.call("cluster.build", b, blk, func() { cls = cluster.BuildIndex(ix, c.Match, max(1, c.Workers)) })
	c.Obs = mm
	var out *auction.Outcome
	tr.call("auction.prepared", b, blk, func() { out = auction.RunPrepared(reqs, offs, ix, cls, c, nil) })
	tr.end(blk)
	mem1 := readMem()
	tr.counts = append(tr.counts, blockCounts{
		"match.topk_scans":           float64(ix.Scans()),
		"cluster.clusters":           float64(len(cls)),
		"auction.miniauctions":       float64(out.MiniAuctions),
		"auction.reduced_frac":       out.ReducedTradeRate(),
		"auction.alloc_mb_per_block": float64(mem1.allocs-mem0.allocs) / (1 << 20),
		"auction.gc_per_block":       float64(mem1.gcs - mem0.gcs),
		"auction.prepass_ms":         (mm.PrepassSeconds.Snapshot().Sum - pre0) * 1e3,
		"auction.auctions_ms":        (mm.AuctionsSeconds.Snapshot().Sum - auc0) * 1e3,
	})
	return out
}

func clearLayers(r *report, tr *tracer) {
	for _, name := range []string{"match.index", "cluster.build", "auction.prepared"} {
		setSpan(r, tr, name, name+"_ms", name+"_cpu_ms")
	}
	setCounts(r, tr)
}

// clearChecks runs the untimed check pass over the first ring's worth of
// blocks: worker invariance, and the fixed-prefix ratios that must repeat
// exactly across runs of one seed.
func clearChecks(r *report, pass *clearPass) {
	if len(pass.firstK) < clearRing {
		r.fail.add("block-clear measured %d blocks, fewer than the ring of %d", len(pass.firstK), clearRing)
		return
	}
	var matched, requests, welfare, greedy, util float64
	for b, blk := range pass.firstK {
		c := auction.DefaultConfig()
		c.Evidence = blk.ev
		c.Workers = 1
		seq := auction.Run(blk.m.Requests, blk.m.Offers, c)
		dSeq, err1 := digest(seq)
		dPar, err2 := digest(blk.out)
		if err1 != nil || err2 != nil || dSeq != dPar {
			r.fail.add("block-clear block %d: outcome differs from the Workers = 1 run", b)
			r.failed += len(blk.m.Requests) + len(blk.m.Offers)
		}
		matched += float64(len(blk.out.Matches))
		requests += float64(len(blk.m.Requests))
		welfare += blk.out.BidWelfare()
		greedy += auction.RunGreedy(blk.m.Requests, blk.m.Offers, c).BidWelfare()
		used, capacity := allocated(blk.out, blk.m.Offers)
		util += used / capacity
	}
	n := len(pass.firstK)
	setRatio(r, "matched_frac", matched, requests, int(requests))
	setRatio(r, "welfare_share", welfare, greedy, n)
	r.set("utilization", util/float64(n), n)
	fmt.Printf("checks: first %d blocks byte-identical to Workers = 1\n", n)
}
