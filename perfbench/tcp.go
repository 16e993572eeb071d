package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"decloud/internal/auction"
	"decloud/internal/audit"
	"decloud/internal/ledger"
	"decloud/internal/miner"
	"decloud/internal/obs"
	"decloud/internal/p2p"
	"decloud/internal/sealed"
	"decloud/internal/workload"
)

// tcp-rounds shape: closed rounds of tcpOrders stream orders sealed by
// tcpClients virtual identities over at most nproc connections and
// submit goroutines, produced by one miner and verified by another.
const (
	tcpOrders     = 128
	tcpClients    = 64
	tcpDifficulty = 8
	// tcpHeapRounds is the prefix of rounds peak_heap_mb samples.
	tcpHeapRounds = 100
	// tcpTimeout bounds every wait of a round; a round that needs it has
	// failed.
	tcpTimeout = 30 * time.Second
)

// tcpStream emits one epoch per round, so every block holds the offers
// its requests were generated against (offers lead each epoch).
func tcpStream(seed int64, prefix string) *workload.Stream {
	return workload.NewStream(workload.StreamConfig{Seed: seed, Clients: tcpClients, EpochOrders: tcpOrders, IDPrefix: prefix})
}

func tcpConns() int { return min(2, runtime.NumCPU()) }

var tcpRound = p2p.RoundConfig{Quorum: 1, RevealWindow: 2 * time.Second, RevealRetries: 2}

// commitBounds are the commit-latency histogram's bucket edges: 2 % wide
// from 0.1 ms to 120 s, so a percentile read from it is within 2 %.
func commitBounds() []float64 {
	var b []float64
	for v := 1e-4; v < 120; v *= 1.02 {
		b = append(b, v)
	}
	return b
}

// tcpRig is one producer, one verifier and one load client on loopback.
type tcpRig struct {
	prod, ver *p2p.MarketNode
	lc        *p2p.LoadClient
	lat       *obs.Histogram
	round     int
}

// tcpPass is one measured sequence of rounds.
type tcpPass struct {
	rounds []*tcpRoundResult
	p      *phase
	lat    obs.HistogramSnapshot // commit latencies of this pass's bids
}

func newRig(seed int64, tag int) (*tcpRig, error) {
	g := &tcpRig{}
	var err error
	cfg := auction.DefaultConfig()
	if g.prod, err = p2p.NewMarketNode(fmt.Sprintf("producer%d", tag), "127.0.0.1:0", tcpDifficulty, cfg); err != nil {
		return nil, err
	}
	if g.ver, err = p2p.NewMarketNode(fmt.Sprintf("verifier%d", tag), "127.0.0.1:0", tcpDifficulty, cfg); err != nil {
		g.close()
		return nil, err
	}
	if err = g.ver.Connect(g.prod.Addr()); err != nil {
		g.close()
		return nil, err
	}
	entropy := make([]io.Reader, tcpClients)
	for i := range entropy {
		entropy[i] = rand.New(rand.NewSource(seed*1000 + int64(i)))
	}
	g.lat = obs.NewRegistry().Histogram("commit_seconds", "publish to commit", commitBounds())
	if g.lc, err = p2p.NewLoadClientConns(fmt.Sprintf("client%d", tag), "127.0.0.1:0", entropy, g.lat, tcpConns()); err != nil {
		g.close()
		return nil, err
	}
	if err = g.lc.Connect(g.prod.Addr()); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

func (g *tcpRig) close() {
	if g.lc != nil {
		g.lc.Close()
	}
	if g.ver != nil {
		g.ver.Close()
	}
	if g.prod != nil {
		g.prod.Close()
	}
}

// waitFor polls cond about once a millisecond until it holds.
func waitFor(ctx context.Context, what string, cond func() bool) error {
	for !cond() {
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", what, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// tcpRoundResult is one closed round as the benchmark saw it.
type tcpRoundResult struct {
	sum                  *p2p.RoundSummary
	total, produce       time.Duration
	intake, intakeCPU    time.Duration
	produceCPU, roundCPU time.Duration
}

// runRound seals and publishes orders over the client's connections,
// produces the block once the mempool holds them all, and returns once
// the client has seen every bid committed.
func (g *tcpRig) runRound(orders []workload.StreamOrder, tr *tracer) (*tcpRoundResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), tcpTimeout)
	defer cancel()
	res := &tcpRoundResult{}
	id := g.round
	g.round++
	submitted0, _, _ := g.lc.Counts()

	c0, t0 := cpuSelf(), time.Now()
	conns := tcpConns()
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine owns the clients ≡ w mod conns: a client's
			// entropy reader must not be used from two goroutines.
			for _, so := range orders {
				if so.Client%conns != w {
					continue
				}
				var bid *sealed.Bid
				var err error
				seal := func() {
					if so.Request != nil {
						bid, err = g.lc.SealRequest(so.Client, so.Request)
					} else {
						bid, err = g.lc.SealOffer(so.Client, so.Offer)
					}
				}
				publish := func() { err = g.lc.PublishOn(w, string(so.ID()), bid) }
				if tr == nil {
					seal()
				} else {
					tr.callThread("sealed.seal", id, seal)
				}
				if err == nil {
					if tr == nil {
						publish()
					} else {
						tr.callThread("p2p.publish", id, publish)
					}
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("round %d: submit: %w", id, err)
	}
	if err := waitFor(ctx, "the mempool to hold the round", func() bool { return g.prod.MempoolSize() >= len(orders) }); err != nil {
		return nil, err
	}
	res.intake, res.intakeCPU = time.Since(t0), cpuSelf()-c0

	c1, t1 := cpuSelf(), time.Now()
	var err error
	if tr == nil {
		res.sum, err = g.prod.ProduceBlockOpts(ctx, tcpRound)
	} else {
		tr.call("p2p.produce", id, -1, func() { res.sum, err = g.prod.ProduceBlockOpts(ctx, tcpRound) })
	}
	res.produce, res.produceCPU = time.Since(t1), cpuSelf()-c1
	if err != nil {
		return nil, fmt.Errorf("round %d: produce: %w", id, err)
	}
	want := submitted0 + int64(len(orders))
	if err := waitFor(ctx, "the client to see the round committed", func() bool {
		_, committed, _ := g.lc.Counts()
		return committed >= want
	}); err != nil {
		return nil, err
	}
	res.total, res.roundCPU = time.Since(t0), cpuSelf()-c0
	return res, nil
}

func runTCPRounds(o opts, r *report) error {
	// The warm rounds' orders are generated before the set-up clock.
	warmStream := tcpStream(warmSeed, "w")
	warm := make([][]workload.StreamOrder, setups)
	for i := range warm {
		warm[i] = warmStream.Emit(tcpOrders)
	}
	rig, setupS, err := timedSetups(func(i int) (*tcpRig, error) {
		g, err := newRig(warmSeed+int64(i), i)
		if err != nil {
			return nil, err
		}
		if _, err := g.runRound(warm[i], nil); err != nil {
			g.close()
			return nil, fmt.Errorf("warm round: %w", err)
		}
		return g, nil
	}, (*tcpRig).close)
	if err != nil {
		return err
	}
	defer rig.close()
	r.set("setup_s", setupS, setups)

	stream := tcpStream(o.seed, "t")
	if !o.trace {
		pass, err := tcpLoop(rig, stream, r, o.seconds, nil)
		if err != nil {
			return err
		}
		return tcpChecks(rig, r, pass, nil)
	}
	untraced, err := tcpLoop(rig, stream, r, o.seconds/2, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := tcpLoop(rig, stream, r, o.seconds/2, tr)
	if err != nil {
		return err
	}
	if err := tcpChecks(rig, r, untraced, nil); err != nil {
		return err
	}
	if err := tcpChecks(rig, r, traced, tr); err != nil {
		return err
	}
	tracedOverhead(r, untraced.p, traced.p)
	r.set("host.steal_frac", (untraced.p.stealFrac+traced.p.stealFrac)/2, 2)
	return writeTrace(tr, o)
}

// tcpLoop runs closed rounds of the stream's next orders until seconds of
// rounds are on the clock.
func tcpLoop(g *tcpRig, stream *workload.Stream, r *report, seconds float64, tr *tracer) (*tcpPass, error) {
	lat0 := g.lat.Snapshot()
	pass := &tcpPass{p: newPhase(tcpHeapRounds)}
	p := pass.p
	for !p.done(seconds) {
		res, err := g.runRound(stream.Emit(tcpOrders), tr)
		if err != nil {
			return nil, err
		}
		pass.rounds = append(pass.rounds, res)
		n := len(res.sum.Block.Bids)
		p.wall += res.total
		p.cpu += res.roundCPU
		p.orders += n
		p.blockMS = append(p.blockMS, ms(res.produce))
		p.sampleHeap()
		r.attempted += tcpOrders
		r.failed += max(0, tcpOrders-n)
		if tr != nil {
			tr.counts = append(tr.counts, blockCounts{
				"p2p.reveal_attempts": float64(res.sum.RevealAttempts),
				"p2p.unrevealed":      float64(res.sum.Unrevealed),
				"p2p.bad_votes":       float64(res.sum.BadVotes),
			})
		}
	}
	p.finish()
	pass.lat = subtract(g.lat.Snapshot(), lat0)
	return pass, nil
}

// subtract returns the observations a histogram gained between two
// snapshots.
func subtract(now, then obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: now.Bounds, Buckets: make([]int64, len(now.Buckets)),
		Count: now.Count - then.Count, Sum: now.Sum - then.Sum}
	for i := range d.Buckets {
		d.Buckets[i] = now.Buckets[i] - then.Buckets[i]
	}
	return d
}

// tcpChecks verifies a pass off the clock — replicas agree, every bid
// committed, every block replays to its recorded allocation and passes
// the audit — and reports its metrics. With tr set, the replay of each
// committed block is timed call by call.
func tcpChecks(g *tcpRig, r *report, pass *tcpPass, tr *tracer) error {
	ctx, cancel := context.WithTimeout(context.Background(), tcpTimeout)
	defer cancel()
	if err := waitFor(ctx, "the verifier to reach the producer's height", func() bool {
		return g.ver.Chain().Len() >= g.prod.Chain().Len()
	}); err != nil {
		r.fail.add("tcp-rounds: %v", err)
	} else if g.ver.Chain().HeadHash() != g.prod.Chain().HeadHash() {
		r.fail.add("tcp-rounds: verifier head differs from producer head")
	}
	submitted, committed, clientMatched := g.lc.Counts()
	if submitted != committed {
		r.fail.add("tcp-rounds: %d bids submitted, %d committed", submitted, committed)
	}

	var matched, requests, welfare, greedy, util float64
	var attempts, unrevealed, badVotes int
	verifier := &miner.Miner{Name: "replay", Difficulty: tcpDifficulty, AuctionCfg: auction.DefaultConfig()}
	for i, rr := range pass.rounds {
		attempts += rr.sum.RevealAttempts
		unrevealed += rr.sum.Unrevealed
		badVotes += rr.sum.BadVotes
		if rr.sum.RevealAttempts != 1 || rr.sum.Unrevealed != 0 || rr.sum.BadVotes != 0 {
			r.fail.add("tcp round %d: reveal attempts %d, unrevealed %d, bad votes %d", i,
				rr.sum.RevealAttempts, rr.sum.Unrevealed, rr.sum.BadVotes)
		}
		b := rr.sum.Block
		var dec miner.DecryptResult
		if tr == nil {
			dec = miner.DecryptOrders(b.Bids, b.Body.Reveals)
		} else {
			dec = replayBlock(r, tr, i, rr, verifier)
		}
		n := len(b.Bids)
		if dec.Rejected != 0 || dec.Unrevealed != 0 {
			r.fail.add("tcp round %d: %d bids rejected, %d unrevealed on replay", i, dec.Rejected, dec.Unrevealed)
			r.failed += dec.Rejected + dec.Unrevealed
		}
		out := rr.sum.Outcome
		if v := audit.Outcome(dec.Requests, dec.Offers, out); len(v) > 0 {
			r.fail.add("tcp round %d: %d audit violations, first %v", i, len(v), v[0])
			r.failed += n
		}
		matched += float64(len(out.Matches))
		requests += float64(len(dec.Requests))
		welfare += out.BidWelfare()
		cfg := auction.DefaultConfig()
		greedy += auction.RunGreedy(dec.Requests, dec.Offers, cfg).BidWelfare()
		used, capacity := allocated(out, dec.Offers)
		util += used / capacity
	}
	fmt.Printf("non-vacuity: rounds=%d reveal_attempts=%d unrevealed=%d bad_votes=%d client_matched=%d\n",
		len(pass.rounds), attempts, unrevealed, badVotes, clientMatched)
	if tr != nil {
		tcpLayers(r, tr, pass)
		return nil
	}
	reportPhase(r, pass.p)
	r.set("commit_s_p50", pass.lat.Quantile(0.5), int(pass.lat.Count))
	r.set("commit_s_p90", pass.lat.Quantile(0.9), int(pass.lat.Count))
	r.set("commit_s_p99", pass.lat.Quantile(0.99), int(pass.lat.Count))
	n := len(pass.rounds)
	setRatio(r, "matched_frac", matched, requests, int(requests))
	setRatio(r, "welfare_share", welfare, greedy, n)
	r.set("utilization", util/float64(n), n)
	return nil
}

// replayBlock re-runs a committed block's verification path call by call:
// wire encode and decode, structural validation, decryption, the
// allocation, its encoding (which must equal the body's), and a full
// VerifyBlock. It returns the decrypted orders.
func replayBlock(r *report, tr *tracer, i int, rr *tcpRoundResult, verifier *miner.Miner) miner.DecryptResult {
	var data []byte
	var err error
	tr.call("p2p.block_marshal", i, -1, func() { data, err = json.Marshal(rr.sum.Block) })
	var b ledger.Block
	if err == nil {
		tr.call("p2p.block_unmarshal", i, -1, func() { err = json.Unmarshal(data, &b) })
	}
	if err == nil {
		tr.call("ledger.validate", i, -1, func() { err = b.Validate() })
	}
	if err != nil {
		r.fail.add("tcp round %d: replay decode/validate: %v", i, err)
		return miner.DecryptOrders(rr.sum.Block.Bids, rr.sum.Block.Body.Reveals)
	}
	var dec miner.DecryptResult
	tr.call("miner.decrypt", i, -1, func() { dec = miner.DecryptOrders(b.Bids, b.Body.Reveals) })
	cfg := auction.DefaultConfig()
	cfg.Evidence = b.Evidence()
	var out *auction.Outcome
	tr.call("auction.clear", i, -1, func() { out = auction.Run(dec.Requests, dec.Offers, cfg) })
	var alloc []byte
	tr.call("ledger.encode", i, -1, func() { alloc, err = ledger.EncodeAllocation(out) })
	if err != nil || !bytes.Equal(alloc, b.Body.Allocation) {
		r.fail.add("tcp round %d: replayed allocation differs from the block body (%v)", i, err)
	}
	tr.call("miner.verify", i, -1, func() { err = verifier.VerifyBlock(&b) })
	if err != nil {
		r.fail.add("tcp round %d: VerifyBlock: %v", i, err)
	}
	return dec
}

// tcpLayers reports the traced pass's per-layer metrics.
func tcpLayers(r *report, tr *tracer, pass *tcpPass) {
	for _, name := range []string{"p2p.produce", "p2p.block_marshal", "p2p.block_unmarshal", "ledger.validate",
		"miner.decrypt", "auction.clear", "ledger.encode", "miner.verify"} {
		setSpan(r, tr, name, name+"_ms", name+"_cpu_ms")
	}
	for _, name := range []string{"sealed.seal", "p2p.publish"} {
		wall, cpu := tr.durations(name)
		r.set(name+"_us", median(wall)*1e3, len(wall))
		r.set(name+"_cpu_us", median(cpu)*1e3, len(cpu))
	}
	decrypt, clear, encode := tr.byBlock("miner.decrypt"), tr.byBlock("auction.clear"), tr.byBlock("ledger.encode")
	var intake, intakeCPU, wait []float64
	for i, rr := range pass.rounds {
		intake = append(intake, ms(rr.intake))
		intakeCPU = append(intakeCPU, ms(rr.intakeCPU))
		wait = append(wait, ms(rr.produce)-(decrypt[i]+clear[i]+encode[i]))
	}
	n := len(pass.rounds)
	r.set("p2p.intake_ms", median(intake), n)
	r.set("p2p.intake_cpu_ms", median(intakeCPU), n)
	r.set("p2p.wait_ms", median(wait), n)
	setCounts(r, tr)
}
