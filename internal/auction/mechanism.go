package auction

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"

	"decloud/internal/bidding"
	"decloud/internal/cluster"
	"decloud/internal/match"
	"decloud/internal/miniauction"
	"decloud/internal/obs"
	"decloud/internal/par"
	"decloud/internal/resource"
	"decloud/internal/stats"
)

// Config tunes the mechanism.
type Config struct {
	// Match configures the quality-of-match heuristic and best-offer set.
	Match match.Config
	// Critical overrides the base critical resource set K_CR
	// (nil → resource.DefaultCritical()).
	Critical map[resource.Kind]bool
	// Evidence seeds the verifiable randomized exclusion. In ledger mode
	// this is the block's proof-of-work; every verifier derives the same
	// lottery from it. Nil falls back to a fixed label (still
	// deterministic, but not block-bound).
	Evidence []byte
	// Reputation, when set, enforces the provider-side client-reputation
	// thresholds of Section III-B: a request may only be placed on an
	// offer if its client's reputation meets the offer's MinReputation.
	// Reputation scores are public ledger state, independent of bids, so
	// the gate does not affect strategyproofness.
	Reputation ReputationSource
	// ExactScheduling switches capacity accounting from the paper's
	// aggregate resource·time model (Const. 7) to exact interval
	// scheduling: every grant gets a concrete start time and concurrent
	// grants never exceed the machine at any instant. Stricter than the
	// paper; outcomes gain meaningful Match.Start values.
	ExactScheduling bool
	// StrictReduction applies trade reduction per CLUSTER instead of per
	// mini-auction: every cluster's marginal client is excluded from
	// that cluster, not just the auction-wide price setter. This is the
	// conservative reading of the paper's Algorithm 4 and loses
	// considerably more welfare (one client per cluster instead of one
	// per mini-auction) — kept as an ablation of the mini-auction
	// grouping's benefit (Section IV-C: "to minimize the adverse effect
	// of trade reduction ... we group clusters in mini-auctions").
	StrictReduction bool
	// Obs, when set, records mechanism observability: per-phase wall
	// times, structure counts, and welfare per block. It is purely
	// observational — the Outcome is byte-identical with Obs nil or set
	// (the obs determinism guard enforces this), because nothing in the
	// pipeline ever reads a metric back.
	Obs *obs.MechanismMetrics
	// Workers bounds the worker pool that parallelizes the mechanism's
	// independent stages: per-request best-offer scoring, per-cluster
	// pre-passes, and the execution of mini-auctions whose member
	// clusters share no orders (see parallel.go). 0 or 1 runs fully
	// sequentially; DefaultConfig sets runtime.GOMAXPROCS(0). Every
	// worker count produces a byte-identical Outcome — the blockchain
	// verification protocol re-executes allocations on machines with
	// arbitrary core counts, so this invariant is load-bearing and is
	// enforced by the internal/auction/paralleltest harness.
	Workers int
	// Shards, when ≥ 1, routes mini-auction execution through the
	// deterministic order-book partitioner (internal/shard): each
	// order-disjoint component of mini-auctions is hashed — locality
	// cell, time bucket, block digest — to one of Shards shards,
	// components straddling shards spill into a residual clearing
	// round, and shards fan out across the worker pool (sharded.go).
	// Like Workers, the value never changes the Outcome: byte-equality
	// at every K, including against the unsharded path, is enforced by
	// paralleltest.CheckShardedVsMonolithic. 0 (the default) keeps the
	// unsharded execution.
	Shards int
	// ShardObs, when set alongside Shards, records per-shard
	// observability: orders and welfare per shard, spillover, and
	// partition/clear/residual stage latencies. Purely observational,
	// like Obs.
	ShardObs *obs.ShardMetrics
	// Incremental routes block execution through the long-lived order
	// book (internal/book) instead of rebuilding the match index and
	// clusters from scratch every round: unmatched orders carry across
	// epochs, and only book state touched since the previous clear is
	// re-derived. The flag is consensus-critical — every miner of a
	// network must agree on it, because carried orders make successive
	// allocations depend on prior blocks. The mechanism itself
	// (Run/RunPrepared) ignores the flag; it is read by the round loops
	// in miner, p2p, sim, and devnet.
	Incremental bool
	// Metros, when ≥ 2, federates the market geographically: orders are
	// homed to one of Metros metro exchanges by their Location cell
	// (internal/metro), each exchange clears its own order book, and
	// unfillable requests spill to latency-nearest neighbor metros.
	// Like Incremental, the flag is consensus-critical and is ignored
	// by Run/RunPrepared itself — the federation round loops in metro,
	// miner, sim, and devnet read it. 0 or 1 keeps the monolithic
	// market (a single-metro federation is byte-identical to it; see
	// metro/metrotest).
	Metros int
	// Futures configures the two-stage futures/spot market
	// (internal/futures): a reservation stage sells forward contracts up
	// to OverbookRatio × declared supply ahead of each epoch and the
	// spot auction settles only the unreserved remainder plus defaults.
	// Like Incremental and Metros, the knob is consensus-critical and is
	// ignored by Run/RunPrepared itself — the futures exchange and the
	// round loops in sim and loadgen read it. The zero value disables
	// the reservation stage entirely (futures/futurestest proves the
	// disabled exchange byte-identical to plain Run).
	Futures FuturesConfig
}

// FuturesConfig tunes the two-stage futures/spot market. All three
// fields are consensus-critical: every party replaying a reservation
// chain must agree on them.
type FuturesConfig struct {
	// OverbookRatio caps forward sales at this multiple of an offer's
	// declared aggregate capacity (≥ 1.0; values below 1 are read as
	// exactly 1.0, i.e. no overbooking). Selling beyond 1.0 bets on
	// buyer no-shows — reservations that do not fit real capacity at
	// delivery are bumped and the seller pays the penalty.
	OverbookRatio float64
	// PenaltyRate is the fraction of a reservation's payment a breaking
	// party owes its counterparty: defaulting or overbooked-and-bumping
	// sellers pay the buyer, no-show or cancelling buyers pay the
	// seller. Every penalty debited is credited — the flow is budget
	// balanced by construction.
	PenaltyRate float64
	// ReserveHorizon is the number of rounds between reservation and
	// delivery. 0 disables the reservation stage: every order clears
	// spot and the exchange reduces to plain Run.
	ReserveHorizon int
}

// Enabled reports whether the reservation stage runs at all.
func (f FuturesConfig) Enabled() bool { return f.ReserveHorizon > 0 }

// Ratio returns the effective overbooking ratio (floor 1.0).
func (f FuturesConfig) Ratio() float64 {
	if f.OverbookRatio < 1 {
		return 1.0
	}
	return f.OverbookRatio
}

// ReputationSource exposes participant reputations to the mechanism
// (implemented by reputation.Store).
type ReputationSource interface {
	Score(id bidding.ParticipantID) float64
}

// DefaultConfig returns the tuning used in the evaluation. Workers
// defaults to the machine's core count; the outcome does not depend on
// it (paralleltest enforces byte-equality across worker counts).
func DefaultConfig() Config {
	return Config{Match: match.DefaultConfig(), Workers: par.Default()}
}

// effectiveWorkers normalizes Config.Workers: anything below 2 means
// sequential execution.
func effectiveWorkers(cfg Config) int {
	if cfg.Workers < 1 {
		return 1
	}
	return cfg.Workers
}

// econFor picks the per-cluster economics pass for a run: the indexed
// one, except under cfg.Match.Reference, where the map-walking reference
// runs so the equivalence harness exercises a fully index-free pipeline.
func econFor(cfg Config, ix *match.Index) func(*cluster.Cluster) *EconCluster {
	if cfg.Match.Reference {
		return func(cl *cluster.Cluster) *EconCluster { return ComputeEconomics(cl, cfg.Critical) }
	}
	return func(cl *cluster.Cluster) *EconCluster { return ComputeEconomicsIndexed(cl, cfg.Critical, ix) }
}

// pairGate builds the request↔offer admissibility filter from the
// reputation source (nil when no gating applies).
func pairGate(cfg Config) func(EconRequest, EconOffer) bool {
	if cfg.Reputation == nil {
		return nil
	}
	rep := cfg.Reputation
	return func(er EconRequest, eo EconOffer) bool {
		if eo.Offer.MinReputation <= 0 {
			return true
		}
		return rep.Score(er.Request.Client) >= eo.Offer.MinReputation
	}
}

// newCapacity picks the capacity model for a pack: exact interval
// scheduling when configured, the map Tracker under Match.Reference —
// the oracle the dense path is proven against — and otherwise the dense
// tracker over ix's block positions. vectors=false skips materializing
// grant vectors (the pre-pass reads only φ).
func newCapacity(cfg Config, ix *match.Index, vectors bool) packCapacity {
	switch {
	case cfg.ExactScheduling:
		return NewIntervalCapacity()
	case cfg.Match.Reference:
		return NewTracker()
	}
	return newDenseTracker(ix, vectors)
}

// prepassScratch is one worker's reusable state for the pre-passes of a
// clear: its dense tracker (reset between clusters) and assignment
// buffer.
type prepassScratch struct {
	cfg   Config
	ix    *match.Index
	dense *denseTracker
	asg   []Assignment
}

// prepassScratches returns one scratch per worker slot.
func prepassScratches(cfg Config, ix *match.Index, workers int) []prepassScratch {
	s := make([]prepassScratch, workers)
	for w := range s {
		s[w].cfg, s[w].ix = cfg, ix
	}
	return s
}

// capacity returns empty capacity for one isolated pack: the worker's
// dense tracker, reset, or a fresh map or interval model.
func (s *prepassScratch) capacity() packCapacity {
	if s.dense != nil {
		s.dense.reset(s.ix)
		return s.dense
	}
	c := newCapacity(s.cfg, s.ix, false)
	s.dense, _ = c.(*denseTracker)
	return c
}

const eps = 1e-9

// clusterStats caches the per-cluster marginal economics computed by the
// pre-pass, which stay fixed for the rest of the block (Algorithm 1
// determines v̂_z and ĉ_{z'+1} before mini-auctions are formed). Stats
// are retained by the order book's prepass cache across clears, so they
// refer to orders by their index in ec, never by block position.
type clusterStats struct {
	ec *EconCluster
	// Marginal economics from the greedy pre-pass.
	vHatZ float64 // v̂_z: lowest allocated normalized valuation
	cHatZ float64 // ĉ_{z'}: highest allocated normalized cost
	// zClient identifies the potential request-side price setter.
	zClient bidding.ParticipantID
	// used marks (by index into ec.Offers) offers that received an
	// allocation in this cluster's pre-pass; unused lists the rest in
	// ĉ-ascending order. The ĉ_{z'+1} price setter is resolved at the
	// mini-auction level: it must be an offer unused in EVERY member
	// cluster (an offer trading in one cluster but idle in another is
	// not a marginal seller).
	used    bitset
	unused  []int32
	welfare float64 // bid-based welfare of the pre-pass allocation
	active  bool
}

// prePass greedily allocates the cluster in isolation (empty capacity)
// to locate the break-even indices z and z′ and estimate the cluster's
// welfare, per Algorithm 1's "allocate r, o ∈ cluster greedily; determine
// v̂_z, ĉ_{z'+1}".
func prePass(ec *EconCluster, pos clusterPos, pairOK func(EconRequest, EconOffer) bool, s *prepassScratch) clusterStats {
	st := clusterStats{ec: ec}
	asg := ec.pack(s.capacity(), pos, nil, nil, nil, pairOK, nil, nil, s.asg[:0])
	s.asg = asg
	if len(asg) == 0 {
		return st
	}
	st.active = true
	st.vHatZ = math.Inf(1)
	st.used = newBitset(len(ec.Offers))
	for _, a := range asg {
		if a.Req.VHat < st.vHatZ {
			st.vHatZ = a.Req.VHat
			st.zClient = a.Req.Request.Client
		}
		if a.Off.CHat > st.cHatZ {
			st.cHatZ = a.Off.CHat
		}
		st.used.set(int(a.oi))
		st.welfare += a.Req.Request.Bid - a.phi*a.Off.Offer.Bid
	}
	for j := range ec.Offers {
		if !st.used.has(j) {
			st.unused = append(st.unused, int32(j)) // ec.Offers is ĉ-ascending
		}
	}
	return st
}

// Run executes DeCloud's DSIC double auction over one block of orders.
// Invalid orders are rejected (listed in the outcome), never fatal: a
// miner must process whatever the block contains.
//
// With cfg.Workers > 1 the three embarrassingly parallel stages —
// best-offer scoring, cluster pre-passes, and order-disjoint
// mini-auctions — fan out across a bounded worker pool; results are
// merged in canonical order so the Outcome is byte-identical to the
// sequential execution (see parallel.go for the argument).
func Run(requests []*bidding.Request, offers []*bidding.Offer, cfg Config) *Outcome {
	pt := startPhases(cfg.Obs)
	out := &Outcome{
		Payments: make(map[bidding.OrderID]float64),
		Revenues: make(map[bidding.OrderID]float64),
	}
	reqs, offs := screen(requests, offers, out)
	workers := effectiveWorkers(cfg)

	// One index serves the whole block: clustering scans it for best
	// offers, and the economics pre-pass reuses its dense rows and kind
	// masks (ComputeEconomicsIndexed).
	ix := match.NewIndex(reqs, offs, match.BlockScale(reqs, offs))
	pt.lapIndex()
	clusters := cluster.BuildIndex(ix, cfg.Match, workers)
	pt.lapCluster()
	runClustered(out, reqs, offs, ix, clusters, cfg, &pt, nil)
	return out
}

// phaseTimer threads the mechanism's observability through Run: lap
// methods record per-phase wall times, finish records the block's
// structure counts. A zero-value timer (Obs nil) is fully inert — no
// clock reads, no atomics — so the uninstrumented path costs one pointer
// compare per call site.
type phaseTimer struct {
	m     *obs.MechanismMetrics
	start time.Time
	last  time.Time
}

func startPhases(m *obs.MechanismMetrics) phaseTimer {
	if m == nil {
		return phaseTimer{}
	}
	now := time.Now()
	return phaseTimer{m: m, start: now, last: now}
}

func (pt *phaseTimer) lap(h *obs.Histogram) {
	now := time.Now()
	h.Observe(now.Sub(pt.last).Seconds())
	pt.last = now
}

func (pt *phaseTimer) lapIndex() {
	if pt.m != nil {
		pt.lap(pt.m.IndexSeconds)
	}
}

func (pt *phaseTimer) lapCluster() {
	if pt.m != nil {
		pt.lap(pt.m.ClusterSeconds)
	}
}

func (pt *phaseTimer) lapPrepass() {
	if pt.m != nil {
		pt.lap(pt.m.PrepassSeconds)
	}
}

func (pt *phaseTimer) lapAuctions() {
	if pt.m != nil {
		pt.lap(pt.m.AuctionsSeconds)
	}
}

func (pt *phaseTimer) finish(out *Outcome, ix *match.Index) {
	m := pt.m
	if m == nil {
		return
	}
	m.Blocks.Inc()
	m.RunSeconds.Observe(time.Since(pt.start).Seconds())
	m.TopKScans.Add(ix.Scans())
	m.Clusters.Add(int64(out.Clusters))
	m.MiniAuctions.Add(int64(out.MiniAuctions))
	m.Matches.Add(int64(len(out.Matches)))
	m.ReducedRequests.Add(int64(len(out.ReducedRequests)))
	m.ReducedOffers.Add(int64(len(out.ReducedOffers)))
	m.LotteryDropped.Add(int64(len(out.LotteryDropped)))
	m.RejectedOrders.Add(int64(len(out.RejectedRequests) + len(out.RejectedOffers)))
	w := out.BidWelfare()
	m.BidWelfareSum.Add(w)
	m.LastBidWelfare.Set(w)
}

// blockState is the mutable allocation state threaded through the
// mini-auction execution loop: shared offer capacity plus the taken /
// reduction / lottery bookkeeping, as bitsets over block positions.
// Sequential mode threads ONE state through every mini-auction; parallel
// mode gives each worker its own state for the order-disjoint components
// of mini-auctions it executes and merges afterwards — equivalent
// because all state is keyed by order position and components share no
// orders.
type blockState struct {
	tracker    packCapacity
	taken      bitset // request positions
	reducedReq bitset // request positions
	reducedOff bitset // offer positions
	lottery    bitset // request positions

	// Scratch reused across mini-auctions.
	asg          []Assignment
	trialTaken   bitset // request positions
	usedAnywhere bitset // offer positions
	reqOK, offOK bitset // cluster-local eligibility
}

func newBlockState(cfg Config, ix *match.Index) *blockState {
	nr, no := len(ix.Requests()), len(ix.Offers())
	return &blockState{
		tracker:      newCapacity(cfg, ix, true),
		taken:        newBitset(nr),
		reducedReq:   newBitset(nr),
		reducedOff:   newBitset(no),
		lottery:      newBitset(nr),
		trialTaken:   newBitset(nr),
		usedAnywhere: newBitset(no),
	}
}

// block is one clear's read-only context for the mini-auctions: the
// pre-pass stats and block positions of every cluster, and what the
// auctions consult besides.
type block struct {
	ix       *match.Index
	cfg      Config
	pairOK   func(EconRequest, EconOffer) bool
	evidence []byte
	all      []clusterStats
	pos      []clusterPos
}

// trade is one assignment recorded by a mini-auction, awaiting emission
// into the Outcome in canonical (auction-index) order.
type trade struct {
	ec    *EconCluster
	a     Assignment
	price float64
}

// auctionPrice resolves the pooled mini-auction's clearing price per
// Eq. 20: p = min(v̂_z, ĉ_{z'+1}), where v̂_z is the lowest marginal
// valuation across member clusters and ĉ_{z'+1} is the cheapest unused
// offer ABOVE every trading offer of the pool. The "above" filter is
// SBBA's structure: the price-setting seller is the first one outside
// the trade. A cluster-local unused offer cheaper than other clusters'
// trading offers is an artifact of cluster-local capacity, not the
// marginal seller — letting it set the price would push p below trading
// sellers' costs and collapse the pool. usedAnywhere is filled with the
// block positions of every offer trading in some member cluster. ok is
// false when the pool has no finite price (nothing trades).
func auctionPrice(auc miniauction.Auction, all []clusterStats, pos []clusterPos, usedAnywhere bitset) (p, maxUsedCost float64, ok bool) {
	clear(usedAnywhere)
	minVZ := math.Inf(1)
	for _, ci := range auc.Clusters {
		st := all[ci]
		if st.vHatZ < minVZ {
			minVZ = st.vHatZ
		}
		if st.cHatZ > maxUsedCost {
			maxUsedCost = st.cHatZ
		}
		for w, m := range st.used {
			for ; m != 0; m &= m - 1 {
				usedAnywhere.set(int(pos[ci].off[w*64+bits.TrailingZeros64(m)]))
			}
		}
	}
	// The ĉ_{z'+1} candidate: the cheapest offer that trades in NO
	// member cluster and sits at or above the pool's trading costs —
	// the genuine marginal seller of the pooled auction.
	nextCost := math.Inf(1)
	for _, ci := range auc.Clusters {
		for _, j := range all[ci].unused {
			eo := all[ci].ec.Offers[j]
			if usedAnywhere.has(int(pos[ci].off[j])) || eo.CHat < maxUsedCost-eps {
				continue
			}
			if eo.CHat < nextCost {
				nextCost = eo.CHat
			}
			break // unused is ĉ-ascending: later entries are pricier
		}
	}
	p = math.Min(minVZ, nextCost)
	return p, maxUsedCost, !math.IsInf(p, 1)
}

// runMiniAuction executes one mini-auction — pricing, trade reduction,
// randomized exclusion, and capacity allocation — against the given
// block state, returning the recorded trades in deterministic order.
// ai must be the auction's index in the block-wide auction list: it
// keys the evidence-derived lotteries, so it must not depend on how
// auctions are scheduled across workers.
func runMiniAuction(ai int, auc miniauction.Auction, b *block, st *blockState) []trade {
	all, cfg := b.all, b.cfg
	p, maxUsedCost, ok := auctionPrice(auc, all, b.pos, st.usedAnywhere)
	if !ok {
		return nil
	}
	// Every participant whose marginal order set the price is
	// excluded — on ties, both sides (a price setter who kept
	// trading could profitably distort the price). Only genuine
	// price-setter candidates count.
	exclClients := make(map[bidding.ParticipantID]bool)
	exclProviders := make(map[bidding.ParticipantID]bool)
	for _, ci := range auc.Clusters {
		cs := all[ci]
		if cs.active && cs.vHatZ <= p+eps {
			exclClients[cs.zClient] = true
		}
		for _, j := range cs.unused {
			eo := cs.ec.Offers[j]
			if st.usedAnywhere.has(int(b.pos[ci].off[j])) || eo.CHat < maxUsedCost-eps {
				continue
			}
			if eo.CHat <= p+eps {
				exclProviders[eo.Offer.Provider] = true
			}
		}
	}

	var trades []trade
	for _, ci := range auc.Clusters {
		cs := all[ci]
		ec := cs.ec
		cp := b.pos[ci]
		reqOK := func(er EconRequest) bool {
			if er.VHat < p-eps || exclClients[er.Request.Client] {
				return false
			}
			if cfg.StrictReduction && cs.active && er.Request.Client == cs.zClient {
				return false
			}
			return true
		}

		st.reqOK = st.reqOK.sized(len(ec.Requests))
		eligible := 0
		for i, er := range ec.Requests {
			if reqOK(er) {
				st.reqOK.set(i)
				if !st.taken.has(int(cp.req[i])) {
					eligible++
				}
			}
		}
		if eligible == 0 {
			continue
		}
		st.offOK = st.offOK.sized(len(ec.Offers))
		eligibleOffers := 0
		for j, eo := range ec.Offers {
			if eo.CHat <= p+eps && !exclProviders[eo.Offer.Provider] {
				st.offOK.set(j)
				eligibleOffers++
			}
		}
		if eligibleOffers == 0 {
			continue
		}

		// Offers are tried in a BID-INDEPENDENT order — if which
		// offers get to serve depended on reported costs, an idle
		// provider could underbid its way into the allocation
		// (Section IV-D). With no excess demand we order by machine
		// size ascending (hardware is system-reported, not strategic)
		// so small requests don't fragment the big machines.
		label := fmt.Sprintf("auction:%d/cluster:%s", ai, ec.Cluster.Key())
		offOrder := sizeOrder(b.evidence, label+"/offers", ec.Offers)

		// Trial pack on a trial view of the block state: if every
		// eligible request fits, the deterministic v̂-descending request
		// order is fine. Otherwise Algorithm 4 applies: "randomize the
		// allocation of cluster" — BOTH which requests trade and where
		// they land are drawn from the evidence-keyed lottery, so no
		// marginal participant can bid its way into the
		// capacity-constrained allocation. This randomization is the
		// welfare price of truthfulness the paper measures in Figures
		// 5a–5b.
		//
		// The trial view observes exactly the parent's values, so the
		// trial's assignments equal what a pack against the real state
		// would produce; in the full case the view is adopted — same
		// grants, same order, same float mutations.
		copy(st.trialTaken, st.taken)
		trial := st.tracker.trial()
		full := ec.pack(trial, cp, st.trialTaken, st.reqOK, st.offOK, b.pairOK, nil, offOrder, st.asg[:0])
		st.asg = full

		var asg []Assignment
		if len(full) == eligible {
			asg = full
			st.tracker.adopt(trial)
			st.taken, st.trialTaken = st.trialTaken, st.taken
		} else {
			reqIDs := make([]string, len(ec.Requests))
			for i, er := range ec.Requests {
				reqIDs[i] = string(er.Request.ID)
			}
			reqOrder := stats.KeyedOrder(b.evidence, label+"/requests", reqIDs)
			offIDs := make([]string, len(ec.Offers))
			for i, eo := range ec.Offers {
				offIDs[i] = string(eo.Offer.ID)
			}
			randOff := stats.KeyedOrder(b.evidence, label+"/offers-lottery", offIDs)
			asg = ec.pack(st.tracker, cp, st.taken, st.reqOK, st.offOK, b.pairOK, reqOrder, randOff, st.asg[:0])
			st.asg = asg
			for i := range ec.Requests {
				if rp := int(cp.req[i]); st.reqOK.has(i) && !st.taken.has(rp) {
					st.lottery.set(rp)
				}
			}
		}
		for _, a := range asg {
			trades = append(trades, trade{ec: ec, a: a, price: p})
		}
	}

	// Bookkeeping of reduced trades: the price setters' competitive
	// orders that were barred from this auction.
	for _, ci := range auc.Clusters {
		cs := all[ci]
		cp := b.pos[ci]
		for i, er := range cs.ec.Requests {
			excluded := exclClients[er.Request.Client] ||
				(cfg.StrictReduction && cs.active && er.Request.Client == cs.zClient)
			if rp := int(cp.req[i]); excluded && er.VHat >= p-eps && !st.taken.has(rp) {
				st.reducedReq.set(rp)
			}
		}
		for j, eo := range cs.ec.Offers {
			if exclProviders[eo.Offer.Provider] && eo.CHat <= p+eps {
				st.reducedOff.set(int(cp.off[j]))
			}
		}
	}
	return trades
}

// RunGreedy is the paper's non-truthful benchmark: the same clustering
// and greedy allocation pipeline, but without trade reduction or
// randomization — every profitable trade executes, yielding "the best
// possible welfare under greedy allocation" (Section V). Payments are not
// meaningful for the benchmark (it is not strategyproof) and are left 0.
func RunGreedy(requests []*bidding.Request, offers []*bidding.Offer, cfg Config) *Outcome {
	out := &Outcome{
		Payments: make(map[bidding.OrderID]float64),
		Revenues: make(map[bidding.OrderID]float64),
	}
	reqs, offs := screen(requests, offers, out)
	workers := effectiveWorkers(cfg)

	ix := match.NewIndex(reqs, offs, match.BlockScale(reqs, offs))
	clusters := cluster.BuildIndex(ix, cfg.Match, workers)
	out.Clusters = len(clusters)

	type ranked struct {
		ec      *EconCluster
		pos     clusterPos
		welfare float64
		active  bool
	}
	econ := econFor(cfg, ix)
	pairOK := pairGate(cfg)
	prePassed := make([]ranked, len(clusters))
	scratch := prepassScratches(cfg, ix, workers)
	par.ForEachWorker(workers, len(clusters), func(w, i int) {
		ec := econ(clusters[i])
		pos := mustPositions(ix, ec, make([]int32, len(ec.Requests)+len(ec.Offers)))
		st := prePass(ec, pos, pairOK, &scratch[w])
		prePassed[i] = ranked{ec: ec, pos: pos, welfare: st.welfare, active: st.active}
	})
	rankedClusters := make([]ranked, 0, len(clusters))
	for _, rc := range prePassed {
		if rc.active {
			rankedClusters = append(rankedClusters, rc)
		}
	}
	slices.SortFunc(rankedClusters, func(a, b ranked) int {
		switch {
		case a.welfare > b.welfare:
			return -1
		case a.welfare < b.welfare:
			return 1
		}
		// Cluster keys are unique, so ties resolve identically under
		// any sort algorithm.
		return strings.Compare(a.ec.Cluster.Key(), b.ec.Cluster.Key())
	})

	tracker := newCapacity(cfg, ix, true)
	taken := newBitset(len(ix.Requests()))
	var asg []Assignment
	for _, rc := range rankedClusters {
		asg = rc.ec.pack(tracker, rc.pos, taken, nil, nil, pairOK, nil, nil, asg[:0])
		for _, a := range asg {
			recordMatch(out, rc.ec, a, 0)
		}
	}
	settle(out)
	return out
}

// screen validates orders, returning the accepted ones and recording
// rejections in the outcome.
func screen(requests []*bidding.Request, offers []*bidding.Offer, out *Outcome) ([]*bidding.Request, []*bidding.Offer) {
	reqs := make([]*bidding.Request, 0, len(requests))
	for _, r := range requests {
		if err := r.Validate(); err != nil {
			out.RejectedRequests = append(out.RejectedRequests, r.ID)
			continue
		}
		reqs = append(reqs, r)
	}
	offs := make([]*bidding.Offer, 0, len(offers))
	for _, o := range offers {
		if err := o.Validate(); err != nil {
			out.RejectedOffers = append(out.RejectedOffers, o.ID)
			continue
		}
		offs = append(offs, o)
	}
	return reqs, offs
}

// recordMatch appends one trade to the outcome. Payments and Revenues
// are NOT written here: they are struct-of-arrays state derived from
// Matches, built once at settle time with exact capacity instead of
// growing two maps trade by trade.
func recordMatch(out *Outcome, ec *EconCluster, a Assignment, price float64) {
	r, o := a.Req.Request, a.Off.Offer
	nu := ec.NuOf(a.Granted)
	pay := nu * price * float64(r.Duration)
	out.Matches = append(out.Matches, Match{
		Request:   r,
		Offer:     o,
		Granted:   a.Granted,
		Fraction:  a.phi,
		Nu:        nu,
		UnitPrice: price,
		Payment:   pay,
		Start:     a.Start,
	})
}

// settle materializes the Payments/Revenues maps from the recorded
// matches. Iteration follows Matches emission order — the order the
// per-trade map writes used to happen in — so the Revenues float
// accumulation is bit-identical to the incremental construction.
func settle(out *Outcome) {
	out.Payments = make(map[bidding.OrderID]float64, len(out.Matches))
	out.Revenues = make(map[bidding.OrderID]float64, len(out.Matches))
	for i := range out.Matches {
		m := &out.Matches[i]
		out.Payments[m.Request.ID] = m.Payment
		out.Revenues[m.Offer.ID] += m.Payment
	}
}

// sizeOrder returns offer indexes sorted by resource magnitude ascending,
// with an evidence-keyed hash breaking ties — fully independent of
// reported costs.
func sizeOrder(evidence []byte, label string, offers []EconOffer) []int {
	ids := make([]string, len(offers))
	for i, eo := range offers {
		ids[i] = string(eo.Offer.ID)
	}
	hashRank := make([]int, len(offers))
	for rank, idx := range stats.KeyedOrder(evidence, label, ids) {
		hashRank[idx] = rank
	}
	// Norm2 allocates (it sorts the vector's kinds); compute it once per
	// offer, not once per comparison.
	norm := make([]float64, len(offers))
	for i, eo := range offers {
		norm[i] = eo.Offer.Resources.Norm2()
	}
	order := make([]int, len(offers))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		na, nb := norm[a], norm[b]
		switch {
		case na < nb:
			return -1
		case na > nb:
			return 1
		}
		// hashRank is a permutation, so this comparator is a total
		// order: the sorted result is unique no matter the algorithm.
		return hashRank[a] - hashRank[b]
	})
	return order
}

// record appends a mini-auction's trades to the outcome, marking the
// block positions of the offers that traded.
func record(out *Outcome, usedOffers bitset, trades []trade) {
	for _, tr := range trades {
		recordMatch(out, tr.ec, tr.a, tr.price)
		usedOffers.set(int(tr.a.op))
	}
}

// finalize drops reduction/lottery records for orders that did trade in
// a later mini-auction, emits them deterministically sorted, and settles
// the payment/revenue maps from the recorded matches. Sets are bitsets
// over ix's block positions.
func finalize(out *Outcome, ix *match.Index, taken, usedOffers, reducedReq, reducedOff, lottery bitset) {
	reqID := func(i int) bidding.OrderID { return ix.Requests()[i].ID }
	offID := func(i int) bidding.OrderID { return ix.Offers()[i].ID }
	out.ReducedRequests = sortedIDs(reducedReq, taken, reqID)
	out.ReducedOffers = sortedIDs(reducedOff, usedOffers, offID)
	out.LotteryDropped = sortedIDs(lottery, taken, reqID)
	settle(out)
}

// sortedIDs lists the IDs of the positions in set but not in traded,
// sorted.
func sortedIDs(set, traded bitset, id func(int) bidding.OrderID) []bidding.OrderID {
	var ids []bidding.OrderID
	for w, m := range set {
		for m &^= traded[w]; m != 0; m &= m - 1 {
			ids = append(ids, id(w*64+bits.TrailingZeros64(m)))
		}
	}
	slices.Sort(ids)
	return ids
}
