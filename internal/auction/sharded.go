package auction

import (
	"time"

	"decloud/internal/bidding"
	"decloud/internal/cluster"
	"decloud/internal/miniauction"
	"decloud/internal/obs"
	"decloud/internal/par"
	"decloud/internal/shard"
)

// Sharded mini-auction execution.
//
// The sharded path generalizes parallel.go: instead of executing every
// order-disjoint component wherever a worker is free, components are
// first assigned to K deterministic shards by shard.Partition (locality
// + time bucket hashed with the block digest), components straddling
// shards spill into a residual round, and each shard — then the
// residual — executes its auctions in global auction-index order
// against its own blockState. Shards and residual are pairwise
// order-disjoint, so the same commutation argument applies: merging
// trades in auction-index order and unioning the disjoint bookkeeping
// bitsets reproduces the sequential execution byte for byte at any K.
// paralleltest.CheckShardedVsMonolithic enforces exactly this.

// runAuctionsSharded partitions the block's mini-auctions into
// cfg.Shards shards plus a residual, clears them on the worker pool,
// and fills in the outcome exactly as the sequential loop would. The
// returned plan carries the partition's conservation accounting.
func runAuctionsSharded(out *Outcome, reqs []*bidding.Request, offs []*bidding.Offer, clusters []*cluster.Cluster, auctions []miniauction.Auction, b *block, workers int) *shard.Plan {
	so := b.cfg.ShardObs
	partitionStart := shardNow(so)
	plan := shard.Partition(reqs, offs, clusters, auctions, b.evidence, b.cfg.Shards)
	if so != nil {
		so.PartitionSeconds.Observe(time.Since(partitionStart).Seconds())
	}

	tradesByAuction := make([][]trade, len(auctions))
	states := make([]*blockState, len(plan.Shards)+1)

	clearStart := shardNow(so)
	par.ForEach(workers, len(plan.Shards), func(si int) {
		st := newBlockState(b.cfg, b.ix)
		for _, ai := range plan.Shards[si] {
			// Auctions keep their global index: the evidence-keyed
			// lotteries are labeled by it, so the shard assignment must
			// not change which lottery an auction draws.
			tradesByAuction[ai] = runMiniAuction(ai, auctions[ai], b, st)
		}
		states[si] = st
	})
	if so != nil {
		so.ClearSeconds.Observe(time.Since(clearStart).Seconds())
	}

	// Residual round: boundary components, whose best-offer structure
	// straddles shards, clear after the fan-out against their own
	// state — order-disjoint from every shard, so position in time is
	// immaterial to the bytes.
	residualStart := shardNow(so)
	rst := newBlockState(b.cfg, b.ix)
	for _, ai := range plan.Residual {
		tradesByAuction[ai] = runMiniAuction(ai, auctions[ai], b, rst)
	}
	states[len(plan.Shards)] = rst
	if so != nil {
		so.ResidualSeconds.Observe(time.Since(residualStart).Seconds())
	}

	// Canonical merge, identical to parallel.go (shards and residual
	// are order-disjoint).
	mergeStates(out, b.ix, tradesByAuction, states)

	out.ShardStats = shardStats(plan, tradesByAuction)
	observeShards(so, out.ShardStats)
	return plan
}

// ShardStats reports how one block's clearing distributed across
// shards. It rides on the Outcome for observability and tests only —
// the json:"-" tag keeps it out of the canonically marshaled outcome
// bytes that verification compares, because the stats depend on K while
// the outcome must not.
type ShardStats struct {
	// Shards is the configured shard count K.
	Shards int
	// Orders counts the distinct orders homed on each shard.
	Orders []int
	// Welfare is the bid-based welfare cleared by each shard's
	// auctions.
	Welfare []float64
	// ResidualOrders / ResidualAuctions / ResidualWelfare describe the
	// spillover carried into the residual round.
	ResidualOrders   int
	ResidualAuctions int
	ResidualWelfare  float64
	// UnclusteredOrders are screened orders outside every active
	// mini-auction; TotalOrders covers all screened orders.
	UnclusteredOrders int
	TotalOrders       int
	// SpilloverRate is ResidualOrders over clusterable orders.
	SpilloverRate float64
}

// shardStats folds the partition plan and the recorded trades into
// per-shard statistics.
func shardStats(plan *shard.Plan, tradesByAuction [][]trade) *ShardStats {
	st := &ShardStats{
		Shards:            plan.K,
		Orders:            plan.ShardOrders,
		Welfare:           make([]float64, plan.K),
		ResidualOrders:    plan.ResidualOrders,
		ResidualAuctions:  len(plan.Residual),
		UnclusteredOrders: plan.UnclusteredOrders,
		TotalOrders:       plan.TotalOrders,
		SpilloverRate:     plan.SpilloverRate(),
	}
	for si, ais := range plan.Shards {
		for _, ai := range ais {
			st.Welfare[si] += tradesWelfare(tradesByAuction[ai])
		}
	}
	for _, ai := range plan.Residual {
		st.ResidualWelfare += tradesWelfare(tradesByAuction[ai])
	}
	return st
}

// tradesWelfare sums the bid-based welfare of a recorded trade list —
// the same per-match formula Outcome.BidWelfare uses.
func tradesWelfare(trs []trade) float64 {
	var w float64
	for _, tr := range trs {
		w += tr.a.Req.Request.Bid - Fraction(tr.a.Granted, tr.a.Req.Request, tr.a.Off.Offer)*tr.a.Off.Offer.Bid
	}
	return w
}

// observeShards publishes one block's shard statistics to the metrics
// bundle (nil-safe, purely observational).
func observeShards(so *obs.ShardMetrics, st *ShardStats) {
	if so == nil || st == nil {
		return
	}
	so.Blocks.Inc()
	so.ShardCount.Set(float64(st.Shards))
	for si := range st.Orders {
		so.ShardOrders.Observe(float64(st.Orders[si]))
		so.ShardWelfare.Observe(st.Welfare[si])
	}
	so.SpilloverOrders.Add(int64(st.ResidualOrders))
	so.ResidualAuctions.Add(int64(st.ResidualAuctions))
	so.LastSpilloverRate.Set(st.SpilloverRate)
}

// shardNow reads the wall clock only when shard metrics are enabled.
func shardNow(so *obs.ShardMetrics) (t time.Time) {
	if so != nil {
		t = time.Now()
	}
	return
}
