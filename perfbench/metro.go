package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"

	"decloud/internal/auction"
	"decloud/internal/audit"
	"decloud/internal/bidding"
	"decloud/internal/book"
	"decloud/internal/metro"
	"decloud/internal/workload"
)

// metro-stream shape: a geo stream over metroMetros exchanges, fed in
// rounds of metroBlock orders. An epoch spans two rounds, so each epoch's
// leading offers are still live when its requests arrive (an epoch longer
// than MaxCarry+1 rounds carries its offers out before the demand comes).
const (
	metroMetros = 4
	metroBlock  = 4096
	metroEpoch  = 8192
	metroRadius = 0.07
	// metroClients client homes: with fewer, the homes load the four
	// metros unevenly and the round time swings with the seed.
	metroClients = 128
	// metroOfferFraction below the stream's default 0.25 leaves demand
	// short of supply, so unfilled requests carry out and spill.
	metroOfferFraction = 0.1
	// metroEpisode is the number of rounds one federation runs before a
	// fresh federation takes a fresh stream. Over one long stream the
	// round time drifts (rounds 16–63 ran 30 % slower than later ones,
	// as the federation's per-order state grows), so a run that got
	// further would read faster; and one stream fixes one layout of
	// client homes, which moves the round time with the seed. Episodes
	// repeat one profile, and the measured phase ends on an episode
	// boundary, so every run averages whole episodes over many layouts.
	metroEpisode = 16
	// metroPrefix is the number of leading rounds (two episodes) the
	// fixed-prefix ratios and the peak heap are computed over; every run
	// completes them.
	metroPrefix = 2 * metroEpisode
)

func metroStream(seed int64) *workload.Stream {
	return workload.NewStream(workload.StreamConfig{
		Seed: seed, Clients: metroClients, EpochOrders: metroEpoch,
		GeoRadius: metroRadius, GeoMetros: metroMetros, IDPrefix: "m",
		OfferFraction: metroOfferFraction,
	})
}

func newFederation() (*metro.Federation, error) {
	return metro.New(metro.Config{
		Metros:  metroMetros,
		Auction: auction.DefaultConfig(),
		Workers: runtime.NumCPU(),
		// Every round's per-metro order sets are kept so that each
		// outcome can be audited against exactly what it cleared.
		CaptureUnions: true,
	})
}

func splitOrders(orders []workload.StreamOrder) (reqs []*bidding.Request, offs []*bidding.Offer) {
	for _, so := range orders {
		if so.Request != nil {
			reqs = append(reqs, so.Request)
		} else {
			offs = append(offs, so.Offer)
		}
	}
	return reqs, offs
}

func runMetroStream(o opts, r *report) error {
	// Set-up builds a federation and clears one warm round, generated
	// before the clock starts; the measured phase then starts on a fresh,
	// empty federation.
	warm := metroStream(warmSeed)
	warmReqs, warmOffs := make([][]*bidding.Request, setups), make([][]*bidding.Offer, setups)
	for i := range warmReqs {
		warmReqs[i], warmOffs[i] = splitOrders(warm.Emit(metroBlock))
	}
	_, setupS, err := timedSetups(func(i int) (*metro.Federation, error) {
		f, err := newFederation()
		if err != nil {
			return nil, err
		}
		_, err = f.Round(warmReqs[i], warmOffs[i], evidenceFor(warmSeed, "warm", i))
		return f, err
	}, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", setupS, setups)

	if !o.trace {
		pass, err := metroLoop(o, r, o.seconds, nil)
		if err != nil {
			return err
		}
		reportPhase(r, pass.p)
		return nil
	}
	untraced, err := metroLoop(o, r, o.seconds/2, nil)
	if err != nil {
		return err
	}
	reportPhase(r, untraced.p)
	tr := newTracer()
	traced, err := metroLoop(o, r, o.seconds/2, tr)
	if err != nil {
		return err
	}
	compareDigests(r, "metro-stream", untraced.heads, traced.heads)
	tracedOverhead(r, untraced.p, traced.p)
	r.set("host.steal_frac", (untraced.p.stealFrac+traced.p.stealFrac)/2, 2)
	setSpan(r, tr, "metro.round", "metro.round_ms", "metro.round_cpu_ms")
	setCounts(r, tr)
	b := traced.books
	reused, rebuilt := float64(b.ComponentsReused), float64(b.ComponentsRebuilt)
	r.set("book.component_reuse_frac", reused/(reused+rebuilt), int(reused+rebuilt))
	inserted := float64(b.InsertedRequests + b.InsertedOffers)
	r.set("book.expired_frac", float64(b.ExpiredRequests+b.ExpiredOffers)/inserted, int(inserted))
	r.set("book.carried_out_frac", float64(b.CarriedOutRequests+b.CarriedOutOffers)/inserted, int(inserted))
	return writeTrace(tr, o)
}

// booksOf sums the book counters of every exchange.
func booksOf(f *metro.Federation) book.Stats {
	var t book.Stats
	for m := 0; m < f.Metros(); m++ {
		s := f.Exchange(m).Book.Stats()
		addBooks(&t, s)
		t.LiveRequests += s.LiveRequests
		t.LiveOffers += s.LiveOffers
	}
	return t
}

type metroPass struct {
	p     *phase
	heads [][32]byte // hash of every exchange head after each round
	books book.Stats // book counters summed over every episode
}

// addStats adds b's counters into a.
func addStats(a *metro.Stats, b metro.Stats) {
	a.Rounds += b.Rounds
	a.SubmittedRequests += b.SubmittedRequests
	a.RejectedRequests += b.RejectedRequests
	a.MatchedLocal += b.MatchedLocal
	a.MatchedSpill += b.MatchedSpill
	a.ExpiredRequests += b.ExpiredRequests
	a.Spills += b.Spills
	a.SpillExpired += b.SpillExpired
	a.SubmittedOffers += b.SubmittedOffers
	a.RejectedOffers += b.RejectedOffers
	a.MatchedOffers += b.MatchedOffers
	a.ExpiredOffers += b.ExpiredOffers
}

// addBooks adds b's cumulative counters into a (live counts are not
// cumulative and are left out).
func addBooks(a *book.Stats, b book.Stats) {
	a.InsertedRequests += b.InsertedRequests
	a.InsertedOffers += b.InsertedOffers
	a.ExpiredRequests += b.ExpiredRequests
	a.ExpiredOffers += b.ExpiredOffers
	a.CarriedOutRequests += b.CarriedOutRequests
	a.CarriedOutOffers += b.CarriedOutOffers
	a.Rescored += b.Rescored
	a.ComponentsReused += b.ComponentsReused
	a.ComponentsRebuilt += b.ComponentsRebuilt
}

// episodeSeed derives episode e's stream seed from the run's seed.
func episodeSeed(seed int64, e int) int64 {
	return int64(binary.LittleEndian.Uint64(evidenceFor(seed, "episode", e)) >> 1)
}

// metroLoop feeds episodes of metroEpisode rounds, each a fresh stream
// into a fresh federation, until seconds are on the clock at an episode
// boundary, checking every round off the clock.
func metroLoop(o opts, r *report, seconds float64, tr *tracer) (*metroPass, error) {
	var (
		f              *metro.Federation
		stream         *workload.Stream
		err            error
		total, prefix  metro.Stats
		welfare, greed float64
		util           float64
	)
	pass := &metroPass{p: newPhase(0)}
	var peakHeap uint64
	// endEpisode, off the clock, reads the federation's live heap after a
	// full collection (over the first metroPrefix rounds only), folds its
	// counters into the totals and drops it. A second collection then
	// leaves every episode to start from the same collector state.
	endEpisode := func(round int) {
		runtime.GC()
		if round <= metroPrefix {
			peakHeap = max(peakHeap, readMem().heap)
		}
		addStats(&total, f.Stats())
		addBooks(&pass.books, booksOf(f))
		f = nil
		runtime.GC()
	}
	for round := 0; ; round++ {
		if round%metroEpisode == 0 {
			if round > 0 {
				endEpisode(round)
			}
			if pass.p.done(seconds) {
				break
			}
			if f, err = newFederation(); err != nil {
				return nil, err
			}
			stream = metroStream(episodeSeed(o.seed, round/metroEpisode))
		}
		reqs, offs := splitOrders(stream.Emit(metroBlock))
		ev := evidenceFor(o.seed, "round", round)
		before := f.Stats()
		var bt0 book.Stats
		if tr != nil {
			bt0 = booksOf(f)
		}
		mem0 := readMem()
		var res *metro.RoundResult
		pass.p.begin()
		if tr == nil {
			res, err = f.Round(reqs, offs, ev)
		} else {
			tr.call("metro.round", round, -1, func() { res, err = f.Round(reqs, offs, ev) })
		}
		d := pass.p.end(len(reqs) + len(offs))
		if err != nil {
			return nil, fmt.Errorf("metro round %d: %w", round, err)
		}
		pass.p.block(d, len(reqs)+len(offs))
		mem1 := readMem()

		r.attempted += len(reqs) + len(offs)
		if err := f.CheckConservation(); err != nil {
			r.fail.add("metro round %d: conservation: %v", round, err)
			r.failed += len(reqs) + len(offs)
		}
		var used, capacity float64
		for m, out := range res.Outcomes {
			if v := audit.Outcome(res.UnionRequests[m], res.UnionOffers[m], out); len(v) > 0 {
				r.fail.add("metro round %d metro %d: %d audit violations, first %v", round, m, len(v), v[0])
				r.failed += len(out.Matches)
			}
			if round < metroPrefix {
				u, c := allocated(out, res.UnionOffers[m])
				used, capacity = used+u, capacity+c
				welfare += out.BidWelfare()
				greed += auction.RunGreedy(res.UnionRequests[m], res.UnionOffers[m], auction.DefaultConfig()).BidWelfare()
			}
		}
		if round < metroPrefix {
			util += used / capacity
		}
		after := f.Stats()
		if round == metroPrefix-1 {
			prefix = total
			addStats(&prefix, after)
		}
		h := sha256.New()
		for _, head := range f.Heads() {
			h.Write(head[:])
		}
		pass.heads = append(pass.heads, [32]byte(h.Sum(nil)))
		if tr != nil {
			bt1 := booksOf(f)
			tr.counts = append(tr.counts, blockCounts{
				"metro.spills":             float64(after.Spills - before.Spills),
				"metro.spill_matched":      float64(after.MatchedSpill - before.MatchedSpill),
				"metro.spill_expired":      float64(after.SpillExpired - before.SpillExpired),
				"book.rescored":            float64(bt1.Rescored - bt0.Rescored),
				"book.live_orders":         float64(bt1.LiveRequests + bt1.LiveOffers),
				"metro.alloc_mb_per_round": float64(mem1.allocs-mem0.allocs) / (1 << 20),
			})
		}
	}
	pass.p.finish()
	pass.p.peakHeap = peakHeap
	r.failed += total.RejectedRequests + total.RejectedOffers
	fmt.Printf("non-vacuity: spills=%d spill_matched=%d spill_expired=%d matched_local=%d expired=%d\n",
		total.Spills, total.MatchedSpill, total.SpillExpired, total.MatchedLocal, total.ExpiredRequests)
	if total.Spills == 0 {
		r.fail.add("metro-stream: no request spilled: the workload stopped exercising spill")
	}
	if tr != nil {
		return pass, nil
	}
	if rounds := len(pass.p.blockMS); rounds < metroPrefix {
		r.fail.add("metro-stream ran %d rounds, fewer than the %d-round check prefix", rounds, metroPrefix)
	} else {
		setRatio(r, "matched_frac", float64(prefix.MatchedLocal+prefix.MatchedSpill), float64(prefix.SubmittedRequests), prefix.SubmittedRequests)
		setRatio(r, "welfare_share", welfare, greed, metroPrefix)
		r.set("utilization", util/metroPrefix, metroPrefix)
	}
	return pass, nil
}
