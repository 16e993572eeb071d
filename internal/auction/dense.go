package auction

import (
	"math/bits"

	"decloud/internal/arena"
	"decloud/internal/bidding"
	"decloud/internal/match"
	"decloud/internal/resource"
)

// Dense block-position capacity.
//
// Every order of a clear has a block position — its index in the
// match.Index's Requests() or Offers() — and every resource kind a
// column of the index's dense rows. The production packing path keeps
// its whole allocation state over those positions: remaining
// resource·time as one float row per touched offer, and the taken,
// lottery and reduction sets as bitsets. The map-keyed Tracker computes
// the same numbers over resource.Vector and survives as the oracle the
// reference pipeline (Match.Reference) packs with, so the
// paralleltest indexed-vs-naive harness compares the two byte for byte.
//
// Exactness: a grant walks the request's kind-mask bits in ascending
// order — ascending index is sorted kind order — and performs, per kind,
// the same min/divide/compare as Tracker.TryGrant; a commit the same
// multiply/subtract/clamp as resource.Vector.SubScaledInPlace; φ the
// same sorted-kind sum as Fraction. Lazily seeded rows hold exactly
// ρ_{o,k}·(t_o⁺−t_o⁻), the value Tracker materializes on first use.

// bitset is a set of small non-negative integers (block or cluster
// positions), one bit each.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }

// or unions src into b (equal lengths).
func (b bitset) or(src bitset) {
	for i, w := range src {
		b[i] |= w
	}
}

// sized returns b resized to hold n bits, all clear, reusing its memory.
func (b bitset) sized(n int) bitset {
	nw := (n + 63) / 64
	if cap(b) < nw {
		return make(bitset, nw)
	}
	b = b[:nw]
	clear(b)
	return b
}

// clusterPos maps one cluster's economics to block positions for the
// current clear: req[i] is the position of ec.Requests[i], off[j] of
// ec.Offers[j]. Positions are looked up per clear and never cached —
// a long-lived order book rebuilds its index every clear, so positions
// (and the index rows behind them) do not outlive it.
type clusterPos struct {
	req []int32
	off []int32
}

// positionsOf looks up the block positions of ec's orders, carving the
// two slices from buf (which must hold len(ec.Requests)+len(ec.Offers)
// entries). ok is false when some order is not in the index.
func positionsOf(ix *match.Index, ec *EconCluster, buf []int32) (p clusterPos, ok bool) {
	nr, no := len(ec.Requests), len(ec.Offers)
	p = clusterPos{req: buf[:nr:nr], off: buf[nr : nr+no : nr+no]}
	for i, er := range ec.Requests {
		rp, ok := ix.RequestPos(er.Request)
		if !ok {
			return clusterPos{}, false
		}
		p.req[i] = int32(rp)
	}
	for j, eo := range ec.Offers {
		op, ok := ix.OfferPos(eo.Offer)
		if !ok {
			return clusterPos{}, false
		}
		p.off[j] = int32(op)
	}
	return p, true
}

// errMissingOrder is the panic value for a cluster holding an order the
// block index does not: clusters must be built over the index's orders.
const errMissingOrder = "auction: cluster order missing from the block index"

// mustPositions is positionsOf for clusters built from ix itself, whose
// orders the index always holds.
func mustPositions(ix *match.Index, ec *EconCluster, buf []int32) clusterPos {
	p, ok := positionsOf(ix, ec, buf)
	if !ok {
		panic(errMissingOrder)
	}
	return p
}

// packCapacity is the capacity a pack places grants against: the dense
// tracker in production, the map Tracker under Match.Reference, the
// IntervalTracker under ExactScheduling.
type packCapacity interface {
	// place grants offer o (block position op) to request r (position
	// rp) if feasible and commits the grant. It returns the granted
	// vector (nil when the capacity was built without vectors), the
	// scheduled start, and φ_{(r,o)} of the grant.
	place(r *bidding.Request, rp int, o *bidding.Offer, op int) (granted resource.Vector, start int64, phi float64, ok bool)
	// trial returns an empty-delta trial view: reads see this state,
	// placements stay in the view until adopt.
	trial() packCapacity
	// adopt makes a trial view's placements part of this state,
	// exactly as if they had been placed here in the same order.
	adopt(trial packCapacity)
}

// denseTracker is the block-position twin of Tracker: remaining
// resource·time per offer as a dense row (one float per kind of the
// index), seeded lazily on first commit. A trial view is a child
// tracker whose unseeded rows read through to its parent.
type denseTracker struct {
	ix      *match.Index
	parent  *denseTracker
	sub     *denseTracker // the reusable trial view
	vectors bool          // materialize granted vectors (the pre-pass needs only φ)

	rem     [][]float64 // by offer position; nil until first commit here
	touched []int32
	slab    arena.Slab[float64]
	g       []float64 // by kind: the grant the last grant() call computed
}

// newDenseTracker returns an empty tracker over ix's positions.
func newDenseTracker(ix *match.Index, vectors bool) *denseTracker {
	t := &denseTracker{vectors: vectors}
	t.reset(ix)
	return t
}

// reset empties the tracker for reuse against ix, keeping its memory.
func (t *denseTracker) reset(ix *match.Index) {
	for _, op := range t.touched {
		t.rem[op] = nil
	}
	t.touched = t.touched[:0]
	t.slab.Reset()
	t.ix = ix
	if no := len(ix.Offers()); cap(t.rem) < no {
		t.rem = make([][]float64, no)
	} else {
		t.rem = t.rem[:no]
	}
	if nk := len(ix.Kinds()); cap(t.g) < nk {
		t.g = make([]float64, nk)
	} else {
		t.g = t.g[:nk]
	}
}

// row returns the offer's remaining row as this view sees it, or nil
// when no view in the chain has committed to it yet (remaining is then
// ρ_{o,k}·window).
func (t *denseTracker) row(op int) []float64 {
	for v := t; v != nil; v = v.parent {
		if r := v.rem[op]; r != nil {
			return r
		}
	}
	return nil
}

// own returns the offer's row in this view, seeding it on first use
// from the parent chain or from ρ_{o,k}·window.
func (t *denseTracker) own(op int, o *bidding.Offer) []float64 {
	if r := t.rem[op]; r != nil {
		return r
	}
	r := t.slab.Make(len(t.g))
	if p := t.parent.row(op); p != nil {
		copy(r, p)
	} else {
		win := float64(o.Window())
		for k, q := range t.ix.OfferRow(op) {
			r[k] = q * win
		}
	}
	t.rem[op] = r
	t.touched = append(t.touched, int32(op))
	return r
}

// grant computes the grant offer o can give request r into t.g — per
// requested kind the minimum of the request, the offer's instantaneous
// capacity and what the remaining resource·time supports for d_r — and
// reports whether it clears the request's flexibility threshold on every
// kind with some kind positive. It does not mutate the remaining rows.
func (t *denseTracker) grant(r *bidding.Request, rp int, o *bidding.Offer, op int) bool {
	if !bidding.TimeCompatible(r, o) || !r.WithinReach(o) {
		return false
	}
	ix := t.ix
	need, inst := ix.RequestRow(rp), ix.OfferRow(op)
	rem := t.row(op)
	win := float64(o.Window())
	flex := r.Flex()
	dur := float64(r.Duration)
	positive := false
	for w, m := range ix.RequestMask(rp) {
		base := w * 64
		for ; m != 0; m &= m - 1 {
			k := base + bits.TrailingZeros64(m)
			nd := need[k]
			g := nd
			if inst[k] < g {
				g = inst[k]
			}
			var left float64
			if rem != nil {
				left = rem[k]
			} else {
				left = inst[k] * win
			}
			if byTime := left / dur; byTime < g {
				g = byTime
			}
			if g < nd*flex-1e-9 {
				return false
			}
			if g > 0 {
				positive = true
			}
			t.g[k] = g
		}
	}
	return positive
}

// commit deducts the last grant() from the offer's remaining row.
func (t *denseTracker) commit(r *bidding.Request, rp int, o *bidding.Offer, op int) {
	row := t.own(op, o)
	dur := float64(r.Duration)
	for w, m := range t.ix.RequestMask(rp) {
		base := w * 64
		for ; m != 0; m &= m - 1 {
			k := base + bits.TrailingZeros64(m)
			left := row[k] - t.g[k]*dur
			if left < 0 {
				left = 0
			}
			row[k] = left
		}
	}
}

// fraction is Fraction over the last grant(): the time share times the
// mean granted share over the positive granted kinds the offer provides,
// summed in ascending kind order.
func (t *denseTracker) fraction(r *bidding.Request, rp int, o *bidding.Offer, op int) float64 {
	if o.Window() <= 0 {
		return 0
	}
	inst := t.ix.OfferRow(op)
	var sum float64
	var n int
	for w, m := range t.ix.RequestMask(rp) {
		base := w * 64
		for ; m != 0; m &= m - 1 {
			k := base + bits.TrailingZeros64(m)
			if g := t.g[k]; g > 0 && inst[k] > 0 {
				sum += g / inst[k]
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(r.Duration) / float64(o.Window()) * sum / float64(n)
}

// vector materializes the last grant() as a resource.Vector with one
// entry per requested kind — zero grants included, as Tracker.TryGrant
// returns them.
func (t *denseTracker) vector(rp int) resource.Vector {
	mask := t.ix.RequestMask(rp)
	n := 0
	for _, m := range mask {
		n += bits.OnesCount64(m)
	}
	kinds := t.ix.Kinds()
	v := make(resource.Vector, n)
	for w, m := range mask {
		base := w * 64
		for ; m != 0; m &= m - 1 {
			k := base + bits.TrailingZeros64(m)
			v[kinds[k]] = t.g[k]
		}
	}
	return v
}

func (t *denseTracker) place(r *bidding.Request, rp int, o *bidding.Offer, op int) (resource.Vector, int64, float64, bool) {
	if !t.grant(r, rp, o, op) {
		return nil, 0, 0, false
	}
	t.commit(r, rp, o, op)
	var v resource.Vector
	if t.vectors {
		v = t.vector(rp)
	}
	return v, r.Start, t.fraction(r, rp, o, op), true
}

func (t *denseTracker) trial() packCapacity {
	if t.sub == nil {
		t.sub = &denseTracker{parent: t}
	}
	t.sub.vectors = t.vectors
	t.sub.reset(t.ix)
	return t.sub
}

// adopt copies the trial's touched rows over this tracker's: the trial
// started from this state and applied the same grants in order, so its
// rows are exactly what committing those grants here would produce.
func (t *denseTracker) adopt(trial packCapacity) {
	sub := trial.(*denseTracker)
	for _, op := range sub.touched {
		dst := t.rem[op]
		if dst == nil {
			dst = t.slab.Make(len(t.g))
			t.rem[op] = dst
			t.touched = append(t.touched, op)
		}
		copy(dst, sub.rem[op])
	}
}

// The map Tracker packs under Match.Reference: the oracle the dense
// tracker is proven against.

func (t *Tracker) place(r *bidding.Request, _ int, o *bidding.Offer, _ int) (resource.Vector, int64, float64, bool) {
	g := t.TryGrant(r, o)
	if g == nil {
		return nil, 0, 0, false
	}
	t.Commit(o, g, r.Duration)
	return g, r.Start, Fraction(g, r, o), true
}

func (t *Tracker) trial() packCapacity { return t.Clone() }

func (t *Tracker) adopt(trial packCapacity) { *t = *trial.(*Tracker) }

// The IntervalTracker packs under ExactScheduling.

func (it *IntervalTracker) place(r *bidding.Request, _ int, o *bidding.Offer, _ int) (resource.Vector, int64, float64, bool) {
	g, start, ok := it.TryGrant(r, o)
	if !ok {
		return nil, 0, 0, false
	}
	it.Commit(r, o, g, start)
	return g, start, Fraction(g, r, o), true
}

func (it *IntervalTracker) trial() packCapacity { return it.Clone() }

func (it *IntervalTracker) adopt(trial packCapacity) { *it = *trial.(*IntervalTracker) }
