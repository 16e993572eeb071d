package auction

import (
	"strings"

	"decloud/internal/bidding"
	"decloud/internal/cluster"
	"decloud/internal/match"
	"decloud/internal/miniauction"
	"decloud/internal/par"
)

// PrepassCache carries per-cluster pre-pass economics across successive
// clears of a long-lived order book (internal/book). The pre-pass of a
// cluster is a pure function of its membership, the normalization scale,
// and the static parts of the Config (critical set, capacity model) —
// it does not read the evidence or any cross-cluster state — so a
// cluster whose membership is unchanged since the previous clear can
// reuse its stats verbatim.
//
// The CALLER owns the preconditions: entries are keyed by membership
// only, so the cache must be flushed (Flush) whenever the normalization
// scale changes or an order ID is re-used with different contents —
// internal/book tracks both. Caching is disabled automatically when the
// config carries a reputation source (reputation scores can move
// between blocks) or runs the reference matcher.
//
// The zero value is ready to use.
type PrepassCache struct {
	entries map[string]clusterStats
}

// Flush drops every cached entry.
func (pc *PrepassCache) Flush() {
	if pc != nil {
		pc.entries = nil
	}
}

// cacheable reports whether the pre-pass may be cached under cfg: the
// reputation gate reads ledger state that changes between blocks, and
// the reference matcher exists to exercise the index-free pipeline.
func (pc *PrepassCache) cacheable(cfg Config) bool {
	return pc != nil && cfg.Reputation == nil && !cfg.Match.Reference
}

// prepassSignature is the cache key of a cluster: offer-set identity
// (Cluster.Key, sorted offer IDs) plus the sorted member request IDs.
// Two clusters with equal signatures have identical membership, and the
// pre-pass depends on nothing else once the caller guarantees a stable
// scale and stable order contents per ID.
func prepassSignature(cl *cluster.Cluster) string {
	var sb strings.Builder
	sb.WriteString(cl.Key())
	sb.WriteByte('\x01')
	for i, r := range cl.Requests {
		if i > 0 {
			sb.WriteByte('\x02')
		}
		sb.WriteString(string(r.ID))
	}
	return sb.String()
}

// RunPrepared executes the mechanism's post-clustering pipeline —
// pre-pass economics, mini-auction formation, pricing, trade reduction,
// lotteries, and capacity allocation — over a prebuilt index and
// cluster list. It is the entry point for the incremental order book,
// which maintains ix and clusters across rounds and re-derives only
// what its dirty-tracking proves stale; Run is exactly
// NewIndex + BuildIndex + RunPrepared, so for identical inputs the
// Outcome is byte-identical to the from-scratch path (the booktest
// differential harness enforces this).
//
// reqs and offs must be the exact order sets the index was built from,
// already validated: RunPrepared performs no screening, so the outcome
// carries empty rejection lists unless the caller records rejects
// itself. cache may be nil (no caching). With cfg.Obs set, RunPrepared
// records the prepass and auctions phases; the index and cluster phases
// belong to the caller that built them.
func RunPrepared(reqs []*bidding.Request, offs []*bidding.Offer, ix *match.Index, clusters []*cluster.Cluster, cfg Config, cache *PrepassCache) *Outcome {
	pt := startPhases(cfg.Obs)
	out := &Outcome{
		Payments: make(map[bidding.OrderID]float64),
		Revenues: make(map[bidding.OrderID]float64),
	}
	runClustered(out, reqs, offs, ix, clusters, cfg, &pt, cache)
	return out
}

// runClustered is the tail of the mechanism shared by Run and
// RunPrepared: everything downstream of cluster formation. It mutates
// out and drives the phase timer through the prepass and auction laps.
func runClustered(out *Outcome, reqs []*bidding.Request, offs []*bidding.Offer, ix *match.Index, clusters []*cluster.Cluster, cfg Config, pt *phaseTimer, cache *PrepassCache) {
	workers := effectiveWorkers(cfg)
	out.Clusters = len(clusters)

	// Pre-pass every cluster. Each pre-pass allocates the cluster in
	// isolation against fresh capacity and writes only its own slot, so
	// the fan-out is exact; the interval list is then assembled in
	// cluster-index order, as the sequential loop would. With a usable
	// cache, unchanged clusters reuse last round's stats: the cache map
	// is read-only during the fan-out and replaced wholesale afterwards,
	// so vanished clusters are pruned for free.
	econ := econFor(cfg, ix)
	pairOK := pairGate(cfg)
	all := make([]clusterStats, len(clusters))
	// Block positions of every cluster's economics, carved from one
	// buffer: the economics keep a subset of the cluster's orders.
	pos := make([]clusterPos, len(clusters))
	bufAt := make([]int, len(clusters)+1)
	for i, cl := range clusters {
		bufAt[i+1] = bufAt[i] + len(cl.Requests) + len(cl.Offers)
	}
	posBuf := make([]int32, bufAt[len(clusters)])
	useCache := cache.cacheable(cfg)
	var sigs []string
	if useCache {
		sigs = make([]string, len(clusters))
		for i, cl := range clusters {
			sigs[i] = prepassSignature(cl)
		}
	}
	scratch := prepassScratches(cfg, ix, workers)
	par.ForEachWorker(workers, len(clusters), func(w, i int) {
		buf := posBuf[bufAt[i]:bufAt[i+1]]
		if useCache {
			// A hit whose orders the index does not hold (an ID
			// re-submitted as a new order with the same contents) is
			// recomputed against the current orders instead.
			if st, ok := cache.entries[sigs[i]]; ok {
				if p, ok := positionsOf(ix, st.ec, buf); ok {
					all[i], pos[i] = st, p
					return
				}
			}
		}
		ec := econ(clusters[i])
		pos[i] = mustPositions(ix, ec, buf)
		all[i] = prePass(ec, pos[i], pairOK, &scratch[w])
	})
	if useCache {
		next := make(map[string]clusterStats, len(clusters))
		for i := range all {
			next[sigs[i]] = all[i]
		}
		cache.entries = next
	}
	pt.lapPrepass()

	var intervals []miniauction.Interval
	for i := range all {
		if all[i].active {
			intervals = append(intervals, miniauction.Interval{
				ID: i, Lo: all[i].cHatZ, Hi: all[i].vHatZ, Weight: all[i].welfare,
			})
		}
	}
	auctions := miniauction.Form(intervals)
	out.MiniAuctions = len(auctions)

	evidence := cfg.Evidence
	if evidence == nil {
		evidence = []byte("decloud/no-evidence")
	}
	b := &block{ix: ix, cfg: cfg, pairOK: pairOK, evidence: evidence, all: all, pos: pos}

	switch {
	case cfg.Shards > 0:
		runAuctionsSharded(out, reqs, offs, clusters, auctions, b, workers)
	case workers > 1:
		runAuctionsParallel(out, auctions, b, workers)
	default:
		st := newBlockState(cfg, ix)
		usedOffers := newBitset(len(ix.Offers()))
		for ai := range auctions {
			record(out, usedOffers, runMiniAuction(ai, auctions[ai], b, st))
		}
		finalize(out, ix, st.taken, usedOffers, st.reducedReq, st.reducedOff, st.lottery)
	}
	pt.lapAuctions()
	pt.finish(out, ix)
}
