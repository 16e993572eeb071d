package main

import (
	"fmt"

	"decloud/internal/auction"
	"decloud/internal/audit"
	"decloud/internal/bidding"
	"decloud/internal/futures"
	"decloud/internal/workload"
)

// futures-epochs shape: rounds of futuresBlock stream orders, half of them
// forward, with demand and supply shocks so that reservations are bumped,
// defaulted and no-shown.
const (
	futuresBlock   = 4096
	futuresEpoch   = 4096
	futuresClients = 64
	futuresPrefix  = 40
)

func futuresConfig() auction.Config {
	cfg := auction.DefaultConfig()
	cfg.Futures = auction.FuturesConfig{OverbookRatio: 1.5, PenaltyRate: 0.25, ReserveHorizon: 1}
	return cfg
}

func futuresStream(seed int64) *workload.Stream {
	return workload.NewStream(workload.StreamConfig{
		Seed: seed, Clients: futuresClients, EpochOrders: futuresEpoch, IDPrefix: "f",
		FuturesFraction: 0.5, DemandShock: 0.2, SupplyShock: 0.1,
	})
}

func roundInput(ts *workload.TwoStageMarket, ev []byte) futures.RoundInput {
	return futures.RoundInput{
		FwdRequests: ts.Fwd.Requests, FwdOffers: ts.Fwd.Offers,
		SpotRequests: ts.Spot.Requests, SpotOffers: ts.Spot.Offers,
		NoShows: ts.NoShows, Defaults: ts.Defaults, Evidence: ev,
	}
}

func runFuturesEpochs(o opts, r *report) error {
	// The warm rounds' inputs are generated before the set-up clock.
	warmStream := futuresStream(warmSeed)
	warm := make([]*workload.TwoStageMarket, setups)
	for i := range warm {
		warm[i] = workload.CollectTwoStage(warmStream, futuresBlock)
	}
	_, setupS, err := timedSetups(func(i int) (*futures.Exchange, error) {
		ex := futures.New(futuresConfig())
		ex.Run(roundInput(warm[i], evidenceFor(warmSeed, "warm", i)))
		return ex, nil
	}, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", setupS, setups)

	if !o.trace {
		pass := futuresLoop(o, r, o.seconds, nil)
		reportPhase(r, pass.p)
		return nil
	}
	untraced := futuresLoop(o, r, o.seconds/2, nil)
	reportPhase(r, untraced.p)
	tr := newTracer()
	traced := futuresLoop(o, r, o.seconds/2, tr)
	compareDigests(r, "futures-epochs", untraced.heads, traced.heads)
	tracedOverhead(r, untraced.p, traced.p)
	r.set("host.steal_frac", (untraced.p.stealFrac+traced.p.stealFrac)/2, 2)
	for _, name := range []string{"futures.reserve", "futures.deliver", "futures.spotmarket", "futures.record", "auction.spot_clear"} {
		setSpan(r, tr, name, name+"_ms", name+"_cpu_ms")
	}
	setCounts(r, tr)
	return writeTrace(tr, o)
}

type futuresPass struct {
	p     *phase
	heads [][32]byte
}

// tracedRound is Exchange.Run's documented composition — Reserve,
// Deliver, SpotMarket, auction.Run, RecordSpot — with a span per call.
func tracedRound(tr *tracer, round int, ex *futures.Exchange, in futures.RoundInput) *futures.RoundResult {
	blk := tr.begin("round", round, -1, rusageSelf)
	res := &futures.RoundResult{Round: ex.Round()}
	tr.call("futures.reserve", round, blk, func() { res.Reserved = ex.Reserve(in) })
	tr.call("futures.deliver", round, blk, func() { res.Delivery = ex.Deliver() })
	var reqs []*bidding.Request
	var offs []*bidding.Offer
	tr.call("futures.spotmarket", round, blk, func() { reqs, offs = ex.SpotMarket(res.Delivery, in.SpotRequests, in.SpotOffers) })
	cfg := futuresConfig()
	cfg.Evidence = in.Evidence
	var out *auction.Outcome
	tr.call("auction.spot_clear", round, blk, func() { out = auction.Run(reqs, offs, cfg) })
	tr.call("futures.record", round, blk, func() { ex.RecordSpot(res, out, reqs, offs) })
	tr.end(blk)
	return res
}

// futuresLoop runs two-stage rounds on a fresh exchange until seconds are
// on the clock, then drains it with empty rounds so every reservation is
// delivered or broken; each round is checked off the clock.
func futuresLoop(o opts, r *report, seconds float64, tr *tracer) *futuresPass {
	ex := futures.New(futuresConfig())
	stream := futuresStream(o.seed)
	pass := &futuresPass{p: newPhase(futuresPrefix)}
	var welfare, greedy, util float64
	var utilRounds int
	var prefixStats futures.Stats
	horizon := futuresConfig().Futures.ReserveHorizon
	drain := -1
	for round := 0; ; round++ {
		if drain < 0 && pass.p.done(seconds) {
			drain = round + horizon
		}
		if drain >= 0 && round >= drain {
			break
		}
		ts := &workload.TwoStageMarket{Fwd: &workload.Market{}, Spot: &workload.Market{}}
		if drain < 0 {
			ts = workload.CollectTwoStage(stream, futuresBlock)
		}
		in := roundInput(ts, evidenceFor(o.seed, "round", round))
		orders := len(in.FwdRequests) + len(in.FwdOffers) + len(in.SpotRequests) + len(in.SpotOffers)
		if drain >= 0 {
			// Drain rounds settle what is pending; they are not measured.
			res := ex.Run(in)
			checkFuturesRound(r, ex, round, in, res, 0)
			continue
		}
		before := ex.Stats()
		mem0 := readMem()
		var res *futures.RoundResult
		pass.p.begin()
		if tr == nil {
			res = ex.Run(in)
		} else {
			res = tracedRound(tr, round, ex, in)
		}
		pass.p.block(pass.p.end(orders), orders)
		mem1 := readMem()

		r.attempted += orders
		reqs, offs := checkFuturesRound(r, ex, round, in, res, orders)
		if round < futuresPrefix {
			welfare += res.Spot.BidWelfare()
			greedy += auction.RunGreedy(reqs, offs, futuresConfig()).BidWelfare()
			if res.Delivery != nil {
				util += res.Utilization
				utilRounds++
			}
		}
		after := ex.Stats()
		if round == futuresPrefix-1 {
			prefixStats = after
		}
		pass.heads = append(pass.heads, ex.Head())
		if tr != nil {
			tr.counts = append(tr.counts, blockCounts{
				"futures.reserved":           float64(after.Reservations - before.Reservations),
				"futures.bumped":             float64(after.Bumps - before.Bumps),
				"futures.defaulted":          float64(after.SellerDefaults - before.SellerDefaults),
				"futures.noshow":             float64(after.NoShows - before.NoShows),
				"futures.alloc_mb_per_round": float64(mem1.allocs-mem0.allocs) / (1 << 20),
			})
		}
	}
	pass.p.finish()
	st := ex.Stats()
	if lr, lo := ex.Live(); lr != 0 || lo != 0 {
		r.fail.add("futures-epochs: %d requests and %d offers still live after the drain", lr, lo)
	}
	r.failed += int(st.RejectedRequests + st.RejectedOffers)
	fmt.Printf("non-vacuity: reserved=%d bumped=%d defaulted=%d noshow=%d delivered=%d spot_matched=%d\n",
		st.Reservations, st.Bumps, st.SellerDefaults, st.NoShows, st.Delivered, st.SpotMatched)
	if st.Reservations == 0 || st.Bumps == 0 || st.SellerDefaults == 0 {
		r.fail.add("futures-epochs: reserved %d, bumped %d, defaulted %d: a reservation stage went unexercised",
			st.Reservations, st.Bumps, st.SellerDefaults)
	}
	if tr != nil {
		return pass
	}
	if rounds := len(pass.p.blockMS); rounds < futuresPrefix {
		r.fail.add("futures-epochs ran %d rounds, fewer than the %d-round check prefix", rounds, futuresPrefix)
	} else {
		setRatio(r, "matched_frac", float64(prefixStats.Delivered+prefixStats.SpotMatched), float64(prefixStats.SubmittedRequests), int(prefixStats.SubmittedRequests))
		setRatio(r, "welfare_share", welfare, greedy, futuresPrefix)
		setRatio(r, "utilization", util, float64(utilRounds), utilRounds)
	}
	return pass
}

// checkFuturesRound audits a round off the clock: conservation, and the
// spot outcome against the order set the spot stage cleared — the native
// spot orders plus the delivery fallout, as SpotMarket composes them.
func checkFuturesRound(r *report, ex *futures.Exchange, round int, in futures.RoundInput, res *futures.RoundResult, orders int) ([]*bidding.Request, []*bidding.Offer) {
	if err := ex.CheckConservation(); err != nil {
		r.fail.add("futures round %d: conservation: %v", round, err)
		r.failed += orders
	}
	reqs, offs := in.SpotRequests, in.SpotOffers
	if res.Delivery != nil {
		reqs = append(append([]*bidding.Request{}, reqs...), res.Delivery.RetryRequests...)
		offs = append(append([]*bidding.Offer{}, offs...), res.Delivery.RemainderOffers...)
	}
	if v := audit.Outcome(reqs, offs, res.Spot); len(v) > 0 {
		r.fail.add("futures round %d: %d audit violations, first %v", round, len(v), v[0])
		r.failed += orders
	}
	return reqs, offs
}
