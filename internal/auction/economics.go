// Package auction implements DeCloud's double auction mechanism A
// (Section IV): the per-cluster economic normalization, the greedy
// in-cluster allocation, the mini-auction grouping, the SBBA-style
// pricing with trade reduction, and block-seeded randomized exclusion.
// The mechanism is DSIC, strongly budget balanced, and individually
// rational; the package also provides the paper's non-truthful greedy
// benchmark (same pipeline without reduction or randomization).
package auction

import (
	"math"
	"math/bits"
	"slices"

	"decloud/internal/bidding"
	"decloud/internal/cluster"
	"decloud/internal/match"
	"decloud/internal/resource"
)

// EconRequest is a request with its cluster-normalized economics:
// ν_r (fraction of the cluster's virtual maximum it consumes) and
// v̂_r = b_r / (ν_r · d_r) (reported valuation per unit resource·time).
type EconRequest struct {
	Request *bidding.Request
	Nu      float64
	VHat    float64
}

// EconOffer is an offer with its cluster-normalized economics:
// ν_o = ‖ρ_o‖₂/‖M_CL‖₂ and ĉ_o = b_o / (ν_o · (t_o⁺ − t_o⁻)).
type EconOffer struct {
	Offer *bidding.Offer
	Nu    float64
	CHat  float64
}

// EconCluster carries a cluster's normalized requests and offers, sorted
// for the McAfee-style ranking: requests by v̂ descending, offers by ĉ
// ascending (ties by submission time, then ID — Section IV-D's tie rule,
// which removes any incentive to delay submission).
type EconCluster struct {
	Cluster  *cluster.Cluster
	Scale    *resource.Scale // the virtual maximum M_CL
	Critical map[resource.Kind]bool
	Requests []EconRequest
	Offers   []EconOffer
}

// ComputeEconomics derives the cluster's common resource types K_CL, the
// virtual maximum M_CL, the critical set K_CR, and the normalized
// valuations and costs of Section IV-C. Orders whose normalization
// degenerates (ν = 0: no common resource with the cluster) are dropped.
func ComputeEconomics(cl *cluster.Cluster, critical map[resource.Kind]bool) *EconCluster {
	// K_CL = (∪_r K_r) ∩ (∪_o K_o).
	reqKinds := make(map[resource.Kind]bool)
	for _, r := range cl.Requests {
		for _, k := range r.Resources.Kinds() {
			reqKinds[k] = true
		}
	}
	offKinds := make(map[resource.Kind]bool)
	for _, o := range cl.Offers {
		for _, k := range o.Resources.Kinds() {
			offKinds[k] = true
		}
	}
	common := make(map[resource.Kind]bool)
	for k := range reqKinds {
		if offKinds[k] {
			common[k] = true
		}
	}

	// M_CL: componentwise maximum over the cluster's offers, restricted
	// to K_CL.
	maxVec := make(resource.Vector)
	for _, o := range cl.Offers {
		for k, q := range o.Resources {
			if common[k] && q > maxVec[k] {
				maxVec[k] = q
			}
		}
	}
	scale := resource.NewScale(maxVec)

	// K_CR: the default critical kinds plus every kind demanded by ALL
	// requests of the cluster.
	crit := make(map[resource.Kind]bool)
	if critical == nil {
		critical = resource.DefaultCritical()
	}
	for k := range critical {
		crit[k] = true
	}
	inAll := make(map[resource.Kind]int)
	for _, r := range cl.Requests {
		for _, k := range r.Resources.Kinds() {
			inAll[k]++
		}
	}
	for k, n := range inAll {
		if n == len(cl.Requests) {
			crit[k] = true
		}
	}

	ec := &EconCluster{Cluster: cl, Scale: scale, Critical: crit}
	for _, o := range cl.Offers {
		nu := scale.Fraction(o.Resources)
		if nu <= 0 || o.Window() <= 0 {
			continue
		}
		ec.Offers = append(ec.Offers, EconOffer{
			Offer: o,
			Nu:    nu,
			CHat:  o.Bid / (nu * float64(o.Window())),
		})
	}
	for _, r := range cl.Requests {
		nu := math.Max(scale.CriticalFraction(r.Resources, crit), scale.Fraction(r.Resources))
		if nu <= 0 || r.Duration <= 0 {
			continue
		}
		ec.Requests = append(ec.Requests, EconRequest{
			Request: r,
			Nu:      nu,
			VHat:    r.Bid / (nu * float64(r.Duration)),
		})
	}
	sortEcon(ec)
	return ec
}

// sortEcon applies Section IV-D's McAfee-style ranking with the
// submission-time tie rule: requests by v̂ descending, offers by ĉ
// ascending.
func sortEcon(ec *EconCluster) {
	// Both comparators are total orders (IDs are unique), so the stable /
	// unstable distinction cannot change the result.
	slices.SortFunc(ec.Requests, func(a, b EconRequest) int {
		switch {
		case a.VHat > b.VHat:
			return -1
		case a.VHat < b.VHat:
			return 1
		}
		switch {
		case a.Request.Submitted < b.Request.Submitted:
			return -1
		case a.Request.Submitted > b.Request.Submitted:
			return 1
		}
		switch {
		case a.Request.ID < b.Request.ID:
			return -1
		case a.Request.ID > b.Request.ID:
			return 1
		}
		return 0
	})
	slices.SortFunc(ec.Offers, func(a, b EconOffer) int {
		switch {
		case a.CHat < b.CHat:
			return -1
		case a.CHat > b.CHat:
			return 1
		}
		switch {
		case a.Offer.Submitted < b.Offer.Submitted:
			return -1
		case a.Offer.Submitted > b.Offer.Submitted:
			return 1
		}
		switch {
		case a.Offer.ID < b.Offer.ID:
			return -1
		case a.Offer.ID > b.Offer.ID:
			return 1
		}
		return 0
	})
}

// ComputeEconomicsIndexed is ComputeEconomics over the block's matching
// index: K_CL, M_CL, and K_CR come from kind-bitmask unions and
// intersections, and the ν sums run over dense rows in ascending kind
// index — the same sorted-kind order resource.Vector.Kinds() yields — so
// every float is bit-identical to the map-walking reference (the block
// outcome is consensus-critical). Masks are MaskWords() words wide —
// wide blocks (> 64 distinct kinds) take the same path, iterating words
// ascending and bits ascending, which is still globally ascending kind
// order. The cluster must be built over ix's orders (cluster.BuildIndex
// on ix, or a builder fed the orders ix indexes); an order ix does not
// hold panics.
func ComputeEconomicsIndexed(cl *cluster.Cluster, critical map[resource.Kind]bool, ix *match.Index) *EconCluster {
	kinds := ix.Kinds()
	nw := ix.MaskWords()
	// Block positions of the cluster's orders; masks and rows are read
	// from the index through them.
	pos := make([]int, len(cl.Requests)+len(cl.Offers))
	reqPos, offPos := pos[:len(cl.Requests)], pos[len(cl.Requests):]
	reqUnion := make([]uint64, nw)
	for i, r := range cl.Requests {
		p, ok := ix.RequestPos(r)
		if !ok {
			panic(errMissingOrder)
		}
		reqPos[i] = p
		for w, mw := range ix.RequestMask(p) {
			reqUnion[w] |= mw
		}
	}
	offUnion := make([]uint64, nw)
	for i, o := range cl.Offers {
		p, ok := ix.OfferPos(o)
		if !ok {
			panic(errMissingOrder)
		}
		offPos[i] = p
		for w, mw := range ix.OfferMask(p) {
			offUnion[w] |= mw
		}
	}

	// K_CL = (∪_r K_r) ∩ (∪_o K_o); M_CL = componentwise offer maximum
	// restricted to it. Every common bit has a positive offer quantity,
	// so M_CL is positive exactly on K_CL.
	common := make([]uint64, nw)
	ncommon := 0
	for w := range common {
		common[w] = reqUnion[w] & offUnion[w]
		ncommon += bits.OnesCount64(common[w])
	}
	maxRow := make([]float64, len(kinds))
	for _, p := range offPos {
		mask, row := ix.OfferMask(p), ix.OfferRow(p)
		for w := 0; w < nw; w++ {
			base := w * 64
			for m := mask[w] & common[w]; m != 0; m &= m - 1 {
				k := base + bits.TrailingZeros64(m)
				if q := row[k]; q > maxRow[k] {
					maxRow[k] = q
				}
			}
		}
	}
	maxVec := make(resource.Vector, ncommon)
	var dsum float64
	for w := 0; w < nw; w++ {
		base := w * 64
		for m := common[w]; m != 0; m &= m - 1 {
			k := base + bits.TrailingZeros64(m)
			maxVec[kinds[k]] = maxRow[k]
			dsum += maxRow[k] * maxRow[k]
		}
	}
	denom := math.Sqrt(dsum) // ‖M_CL‖₂, summed in sorted kind order

	// K_CR: the base critical kinds plus every kind demanded by ALL
	// requests (the AND of the request masks).
	crit := make(map[resource.Kind]bool)
	if critical == nil {
		critical = resource.DefaultCritical()
	}
	for k := range critical {
		crit[k] = true
	}
	if len(reqPos) > 0 {
		inAll := append([]uint64(nil), ix.RequestMask(reqPos[0])...)
		for _, p := range reqPos[1:] {
			for w, mw := range ix.RequestMask(p) {
				inAll[w] &= mw
			}
		}
		for w := 0; w < nw; w++ {
			base := w * 64
			for m := inAll[w]; m != 0; m &= m - 1 {
				crit[kinds[base+bits.TrailingZeros64(m)]] = true
			}
		}
	}
	critMask := make([]uint64, nw)
	for i, k := range kinds {
		if crit[k] {
			critMask[i/64] |= 1 << uint(i%64)
		}
	}

	ec := &EconCluster{
		Cluster:  cl,
		Scale:    resource.NewScale(maxVec),
		Critical: crit,
		Requests: make([]EconRequest, 0, len(cl.Requests)),
		Offers:   make([]EconOffer, 0, len(cl.Offers)),
	}
	// fraction is Scale.Fraction over a dense row: Σ q² over the vector's
	// kinds known to M_CL, ascending bit = sorted kind order.
	fraction := func(vmask []uint64, row []float64) float64 {
		if denom <= 0 {
			return 0
		}
		var sum float64
		for w := 0; w < nw; w++ {
			base := w * 64
			for m := vmask[w] & common[w]; m != 0; m &= m - 1 {
				q := row[base+bits.TrailingZeros64(m)]
				sum += q * q
			}
		}
		f := math.Sqrt(sum) / denom
		if f > 1 {
			f = 1
		}
		return f
	}
	for i, o := range cl.Offers {
		nu := fraction(ix.OfferMask(offPos[i]), ix.OfferRow(offPos[i]))
		if nu <= 0 || o.Window() <= 0 {
			continue
		}
		ec.Offers = append(ec.Offers, EconOffer{
			Offer: o,
			Nu:    nu,
			CHat:  o.Bid / (nu * float64(o.Window())),
		})
	}
	for i, r := range cl.Requests {
		mask, row := ix.RequestMask(reqPos[i]), ix.RequestRow(reqPos[i])
		// CriticalFraction: max share of any critical kind M_CL knows —
		// a max, so iteration order is immaterial.
		var cf float64
		for w := 0; w < nw; w++ {
			base := w * 64
			for m := critMask[w] & common[w]; m != 0; m &= m - 1 {
				k := base + bits.TrailingZeros64(m)
				if f := row[k] / maxRow[k]; f > cf {
					cf = f
				}
			}
		}
		if cf > 1 {
			cf = 1
		}
		nu := math.Max(cf, fraction(mask, row))
		if nu <= 0 || r.Duration <= 0 {
			continue
		}
		ec.Requests = append(ec.Requests, EconRequest{
			Request: r,
			Nu:      nu,
			VHat:    r.Bid / (nu * float64(r.Duration)),
		})
	}
	sortEcon(ec)
	return ec
}

// NuOf recomputes ν for an arbitrary granted resource vector against this
// cluster's scale and critical set — used to price partially granted
// (flexible) matches by what the client actually receives.
func (ec *EconCluster) NuOf(granted resource.Vector) float64 {
	return math.Max(ec.Scale.CriticalFraction(granted, ec.Critical), ec.Scale.Fraction(granted))
}
