package auction

import (
	"decloud/internal/match"
	"decloud/internal/miniauction"
	"decloud/internal/par"
)

// Parallel mini-auction execution.
//
// Mini-auctions are NOT automatically independent: Algorithm 2's
// intersection clusters let one order appear in several clusters, and a
// cluster on a shared tree prefix appears on several root-to-leaf
// paths. All cross-auction coupling, however, flows through state keyed
// by order — the capacity tracker (offer positions), the taken set
// (request positions), and the reduction/lottery bookkeeping — so
// auctions whose member clusters share no order can neither observe nor
// affect each other. We therefore partition the auctions into
// order-disjoint components (union-find over order footprints), execute
// each component sequentially in auction-index order, and merge: trades
// are emitted in global auction-index order and the bookkeeping bitsets
// are unioned (their bits are disjoint across components).
// Interleaving auctions of disjoint components commutes, so this
// reproduces the sequential execution byte for byte — the property
// internal/auction/paralleltest enforces.

// clusterFootprint lists every order ID a cluster's execution can read
// or write, as strings for miniauction.IndependentGroups. It uses the
// raw cluster membership (a superset of the economics-filtered orders),
// which can only over-merge components, never under-merge.
func clusterFootprint(cs clusterStats) []string {
	cl := cs.ec.Cluster
	ids := make([]string, 0, len(cl.Requests)+len(cl.Offers))
	for _, r := range cl.Requests {
		ids = append(ids, string(r.ID))
	}
	for _, o := range cl.Offers {
		ids = append(ids, string(o.ID))
	}
	return ids
}

// runAuctionsParallel executes the mini-auctions across the worker pool
// and fills in the outcome exactly as the sequential loop would. Each
// worker threads one blockState through the components it executes:
// components share no orders, so state left by one cannot be observed
// by another.
func runAuctionsParallel(out *Outcome, auctions []miniauction.Auction, b *block, workers int) {
	groups := miniauction.IndependentGroups(auctions, func(ci int) []string {
		return clusterFootprint(b.all[ci])
	})

	states := make([]*blockState, workers)
	tradesByAuction := make([][]trade, len(auctions))
	par.ForEachWorker(workers, len(groups), func(w, gi int) {
		if states[w] == nil {
			states[w] = newBlockState(b.cfg, b.ix)
		}
		for _, ai := range groups[gi] {
			// Each auction keeps its global index: the evidence-keyed
			// lotteries are labeled by it, so scheduling must not
			// change which lottery an auction draws.
			tradesByAuction[ai] = runMiniAuction(ai, auctions[ai], b, states[w])
		}
	})
	mergeStates(out, b.ix, tradesByAuction, states)
}

// mergeStates is the canonical merge of independently executed
// mini-auctions: trades in auction-index order (what the sequential
// loop emits), bookkeeping bitsets unioned — their bits are disjoint
// across states, so union order is immaterial.
func mergeStates(out *Outcome, ix *match.Index, tradesByAuction [][]trade, states []*blockState) {
	nr, no := len(ix.Requests()), len(ix.Offers())
	usedOffers := newBitset(no)
	for _, trs := range tradesByAuction {
		record(out, usedOffers, trs)
	}
	taken, lottery, reducedReq, reducedOff := newBitset(nr), newBitset(nr), newBitset(nr), newBitset(no)
	for _, st := range states {
		if st == nil {
			continue
		}
		taken.or(st.taken)
		reducedReq.or(st.reducedReq)
		reducedOff.or(st.reducedOff)
		lottery.or(st.lottery)
	}
	finalize(out, ix, taken, usedOffers, reducedReq, reducedOff, lottery)
}
