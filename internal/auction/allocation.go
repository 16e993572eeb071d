package auction

import (
	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// Tracker accounts for the remaining capacity of every offer across all
// clusters and mini-auctions of a block. Capacity follows the paper's
// Const. 7 semantics: the commodity is resource·time — an offer provides
// ρ_{o,k} · (t_o⁺ − t_o⁻) units of each kind k, a granted request
// consumes granted_k · d_r, and the sum of allocated fractions per kind
// never exceeds 1. Instantaneous grants are additionally capped at
// ρ_{o,k} (Const. 8).
//
// The mechanism packs with the dense block-position tracker (dense.go);
// Tracker computes the same numbers over resource.Vector maps and is
// the oracle it is proven against — the reference pipeline
// (Match.Reference) packs with it — and the accounting
// internal/baseline uses.
type Tracker struct {
	remaining map[bidding.OrderID]resource.Vector
}

// NewTracker returns an empty tracker; capacity is materialized lazily
// per offer on first use.
func NewTracker() *Tracker {
	return &Tracker{remaining: make(map[bidding.OrderID]resource.Vector)}
}

// Clone deep-copies the tracker, letting callers trial-pack without
// committing.
func (t *Tracker) Clone() *Tracker {
	c := NewTracker()
	for id, v := range t.remaining {
		c.remaining[id] = v.Clone()
	}
	return c
}

func (t *Tracker) capacity(o *bidding.Offer) resource.Vector {
	if rem, ok := t.remaining[o.ID]; ok {
		return rem
	}
	rem := o.Resources.Scale(float64(o.Window()))
	t.remaining[o.ID] = rem
	return rem
}

// Remaining returns a copy of the offer's remaining resource·time vector.
func (t *Tracker) Remaining(o *bidding.Offer) resource.Vector {
	return t.capacity(o).Clone()
}

// TryGrant computes the resource vector offer o can grant request r right
// now: per requested kind, the minimum of the requested amount, the
// offer's instantaneous capacity, and what the remaining resource·time
// budget supports for d_r. It returns nil when the grant would fall below
// the request's flexibility threshold on any kind, or the windows are
// incompatible. TryGrant does not mutate the tracker.
//
// Two passes: the first validates every kind against the flexibility
// threshold without allocating — packing loops probe far more pairs than
// they place, and a failed probe must cost nothing — and only a feasible
// grant builds the result map. Per-kind arithmetic is identical in both
// passes, so the second pass cannot disagree with the first.
func (t *Tracker) TryGrant(r *bidding.Request, o *bidding.Offer) resource.Vector {
	if !bidding.TimeCompatible(r, o) || !r.WithinReach(o) {
		return nil
	}
	rem := t.capacity(o)
	flex := r.Flex()
	dur := float64(r.Duration)
	positive := false
	for k, need := range r.Resources {
		if need <= 0 {
			continue
		}
		g := need
		if inst := o.Resources[k]; inst < g {
			g = inst
		}
		if byTime := rem[k] / dur; byTime < g {
			g = byTime
		}
		if g < need*flex-1e-9 {
			return nil
		}
		if g > 0 {
			positive = true
		}
	}
	if !positive {
		return nil
	}
	granted := make(resource.Vector, len(r.Resources))
	for k, need := range r.Resources {
		if need <= 0 {
			continue
		}
		g := need
		if inst := o.Resources[k]; inst < g {
			g = inst
		}
		if byTime := rem[k] / dur; byTime < g {
			g = byTime
		}
		granted[k] = g
	}
	return granted
}

// Commit deducts a grant from the offer's remaining capacity, mutating
// the stored vector in place (same multiply/subtract/clamp per component
// as the former rem.Sub(granted.Scale(d)), without the two intermediate
// vectors).
func (t *Tracker) Commit(o *bidding.Offer, granted resource.Vector, duration int64) {
	t.capacity(o).SubScaledInPlace(granted, float64(duration))
}

// Assignment is one request placed on one offer with a concrete grant.
type Assignment struct {
	Req     EconRequest
	Off     EconOffer
	Granted resource.Vector
	// Start is the scheduled start time (the request's window start
	// under the aggregate model; a concrete slot under exact scheduling).
	Start int64

	phi float64 // φ_{(r,o)} of the grant (Eq. 6)
	oi  int32   // index of Off in the cluster's Offers
	op  int32   // block position of the offer
}

// pack greedily places the cluster's requests onto its offers.
//
//   - pos gives the block positions of ec's orders for this clear.
//   - reqOrder lists indexes into ec.Requests in the order to try; nil
//     means natural order (v̂ descending).
//   - offOrder lists indexes into ec.Offers in the order to try; nil
//     means natural order (ĉ ascending). The mechanism's final phase
//     passes a bid-independent random permutation here — the paper's
//     "exclude redundant offers randomly" (Section IV-D): if which offers
//     get to serve depended on the reported cost, an idle provider could
//     underbid its way into the allocation and profit at the clearing
//     price.
//   - reqOK / offOK are eligibility bitsets over ec.Requests / ec.Offers
//     indexes (nil means all eligible).
//   - pairOK filters request↔offer pairs (nil admits all); the mechanism
//     uses it for the provider-side reputation gate of Section III-B.
//   - taken marks, by block position, requests already allocated
//     elsewhere in the block; it is updated as requests are placed. nil
//     skips the bookkeeping (an isolated pack visits each request once).
//   - c supplies capacity; successful grants are committed.
//
// Placements are appended to out (scratch the caller reuses), in
// placement order. A request is placed on the first eligible offer (in offOrder) that is
// profitable for it (v̂_r ≥ ĉ_o) and can grant it within the request's
// flexibility.
func (ec *EconCluster) pack(
	c packCapacity,
	pos clusterPos,
	taken bitset,
	reqOK, offOK bitset,
	pairOK func(EconRequest, EconOffer) bool,
	reqOrder []int,
	offOrder []int,
	out []Assignment,
) []Assignment {
	nr := len(ec.Requests)
	if reqOrder != nil {
		nr = len(reqOrder)
	}
	no := len(ec.Offers)
	if offOrder != nil {
		no = len(offOrder)
	}
	for i := 0; i < nr; i++ {
		ri := i
		if reqOrder != nil {
			ri = reqOrder[i]
		}
		rp := int(pos.req[ri])
		if taken != nil && taken.has(rp) {
			continue
		}
		if reqOK != nil && !reqOK.has(ri) {
			continue
		}
		er := &ec.Requests[ri]
		for j := 0; j < no; j++ {
			oi := j
			if offOrder != nil {
				oi = offOrder[j]
			}
			if offOK != nil && !offOK.has(oi) {
				continue
			}
			eo := &ec.Offers[oi]
			if er.VHat < eo.CHat {
				// Unprofitable pairing; with a custom offer order later
				// offers may still be cheaper, so keep scanning.
				continue
			}
			if pairOK != nil && !pairOK(*er, *eo) {
				continue
			}
			op := int(pos.off[oi])
			granted, start, phi, ok := c.place(er.Request, rp, eo.Offer, op)
			if !ok {
				continue
			}
			if taken != nil {
				taken.set(rp)
			}
			out = append(out, Assignment{Req: *er, Off: *eo, Granted: granted, Start: start, phi: phi, oi: int32(oi), op: int32(op)})
			break
		}
	}
	return out
}

// Fraction computes φ_{(r,o)} (Eq. 6) for a concrete grant: the time
// share d_r/(t_o⁺−t_o⁻) times the mean granted share over the kinds the
// offer actually provides. A kind granted 0 (a flexible request on a
// kind the offer has used up) counts in neither the sum nor the mean:
// AppendKinds lists positive quantities only.
func Fraction(granted resource.Vector, r *bidding.Request, o *bidding.Offer) float64 {
	if o.Window() <= 0 {
		return 0
	}
	// Sorted iteration: φ feeds payments, which verifying miners must
	// reproduce bit-for-bit.
	var buf [16]resource.Kind
	var sum float64
	var n int
	for _, k := range granted.AppendKinds(buf[:0]) {
		if cap := o.Resources[k]; cap > 0 {
			sum += granted[k] / cap
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(r.Duration) / float64(o.Window()) * sum / float64(n)
}
