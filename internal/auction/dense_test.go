package auction

import (
	"fmt"
	"math"
	"testing"

	"decloud/internal/bidding"
	"decloud/internal/match"
	"decloud/internal/resource"
)

// fuzzBytes hands out fuzz input bytes, then zeros once exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v
}

// vector draws up to three kinds of nk, each absent, zero, or positive.
func (b *fuzzBytes) vector(nk int) resource.Vector {
	v := make(resource.Vector)
	for n := b.next() % 4; n > 0; n-- {
		k := resource.Kind(fmt.Sprintf("k%03d", b.next()%nk))
		if q := b.next(); q%5 == 0 {
			v[k] = 0
		} else {
			v[k] = float64(q%24+1) / 2
		}
	}
	return v
}

// fuzzFlex are the flexibilities FuzzDenseCapacity draws: inflexible,
// moderate, and so small that a kind granted 0 still clears the
// threshold (need·flex ≤ 1e-9).
var fuzzFlex = []float64{0, 0.3, 0.6, 0.9, 1e-10, 1e-12}

// FuzzDenseCapacity drives arbitrary grant, commit and trial sequences
// through the dense block tracker and the map Tracker side by side — a
// handful of offers and requests over few or over more than 64 kinds,
// with zero and absent quantities, flexible requests, and varied
// windows and durations. Every grant verdict, granted quantity, φ and
// remaining resource·time must agree bit for bit.
func FuzzDenseCapacity(f *testing.F) {
	f.Add([]byte{3, 2, 2, 1, 0, 7, 9, 4, 30, 2, 3, 1, 5, 2, 2, 6, 1, 3, 8, 12, 1, 0, 0, 1, 1, 1, 1, 0, 2, 2})
	f.Add([]byte{0, 5, 1, 3, 3, 0, 11, 1, 9, 2, 4, 0, 90, 3, 2, 7, 1, 4, 2, 40, 2, 2, 1, 3, 1, 0, 4, 5, 1, 1, 1, 0, 1, 1, 2, 0, 0})
	f.Add([]byte{4, 9, 3, 2, 1, 17, 50, 3, 1, 3, 60, 12, 1, 1, 5, 10, 200, 4, 1, 7, 33, 2, 0, 1, 1, 2, 1, 1, 2, 0, 1, 2, 1, 1, 1, 1, 1})
	// One offer, two requests: a block placement, then a trial placement
	// on the same offer that is adopted — the trial must start from the
	// block's row, not from the offer's full capacity.
	f.Add([]byte{0, 1, 0, 0, 1, 0, 9, 20, 1, 0, 4, 1, 0, 3, 0, 0, 0, 4, 1, 0, 3, 0, 0, 1, 0, 0, 2, 1, 0, 0})
	// One offer {k000:4, k001:1} over 20 units: r0 uses up k001, then
	// r1 {k000:2, k001:1} with Flexibility 1e-10 is granted k001 0 — on
	// the block state, then on an adopted trial. The zero grant stays in
	// the vector and out of φ.
	f.Add([]byte{1, 1, 0, 0, 2, 0, 7, 1, 1, 20, 1, 0, 19, 1, 1, 1, 0, 0, 0, 4, 2, 0, 3, 1, 1, 0, 4, 1, 0, 0, 1, 1, 0, 2, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		nk := 1 + in.next()%6
		if in.next()%3 == 0 {
			nk += 64 // multi-word kind masks
		}
		offs := make([]*bidding.Offer, 1+in.next()%4)
		for i := range offs {
			start := int64(in.next() % 10)
			offs[i] = &bidding.Offer{
				ID:        bidding.OrderID(fmt.Sprintf("o%d", i)),
				Resources: in.vector(nk),
				Start:     start, End: start + int64(in.next()%40),
			}
		}
		reqs := make([]*bidding.Request, 1+in.next()%6)
		for i := range reqs {
			start := int64(in.next() % 15)
			dur := int64(1 + in.next()%20)
			reqs[i] = &bidding.Request{
				ID:          bidding.OrderID(fmt.Sprintf("r%d", i)),
				Resources:   in.vector(nk),
				Start:       start,
				End:         start + dur + int64(in.next()%10),
				Duration:    dur,
				Flexibility: fuzzFlex[in.next()%len(fuzzFlex)],
			}
		}
		ix := match.NewIndex(reqs, offs, match.BlockScale(reqs, offs))
		dense := newDenseTracker(ix, true)
		ref := NewTracker()

		for step := 0; len(in) > 0 && step < 64; step++ {
			op := in.next()
			r, o := reqs[in.next()%len(reqs)], offs[in.next()%len(offs)]
			rp, _ := ix.RequestPos(r)
			opos, _ := ix.OfferPos(o)
			switch op % 3 {
			case 0: // probe only
				want := ref.TryGrant(r, o)
				if got := dense.grant(r, rp, o, opos); got != (want != nil) {
					t.Fatalf("step %d: grant verdict %v, tracker %v", step, got, want)
				} else if got {
					sameVector(t, step, dense.vector(rp), want)
				}
			case 1: // place on the block state
				placeBoth(t, step, dense, ref, r, rp, o, opos)
			case 2: // place on a trial view, then adopt or drop it
				trial := dense.trial()
				refTrial := ref.trial()
				placeBoth(t, step, trial.(*denseTracker), refTrial.(*Tracker), r, rp, o, opos)
				if in.next()%2 == 0 {
					dense.adopt(trial)
					ref.adopt(refTrial)
				}
			}
			for _, o := range offs {
				p, _ := ix.OfferPos(o)
				want := ref.Remaining(o)
				row := dense.row(p)
				for ki, k := range ix.Kinds() {
					got := ix.OfferRow(p)[ki] * float64(o.Window())
					if row != nil {
						got = row[ki]
					}
					if math.Float64bits(got) != math.Float64bits(want[k]) {
						t.Fatalf("step %d: offer %s kind %s remaining %v, tracker %v", step, o.ID, k, got, want[k])
					}
				}
			}
		}
	})
}

// TestDenseFractionSkipsZeroGrants pins φ for a grant with a zero
// component: offer {cpu:4, gpu:1} over [0,100]; a first request uses up
// the gpu resource·time, then a request {cpu:2, gpu:1} with Flexibility
// 1e-10 is granted cpu 2 and gpu 0. Fraction counts only the positive
// kinds, so φ = 10/100 · (2/4)/1 = 0.05, and the dense tracker agrees.
func TestDenseFractionSkipsZeroGrants(t *testing.T) {
	off := &bidding.Offer{ID: "o", Resources: resource.Vector{"cpu": 4, "gpu": 1}, Start: 0, End: 100}
	hog := &bidding.Request{ID: "a", Resources: resource.Vector{"gpu": 1}, Start: 0, End: 100, Duration: 100}
	flex := &bidding.Request{ID: "b", Resources: resource.Vector{"cpu": 2, "gpu": 1}, Start: 0, End: 100, Duration: 10, Flexibility: 1e-10}
	reqs, offs := []*bidding.Request{hog, flex}, []*bidding.Offer{off}
	ix := match.NewIndex(reqs, offs, match.BlockScale(reqs, offs))
	dense, ref := newDenseTracker(ix, true), NewTracker()
	op, _ := ix.OfferPos(off)
	for step, r := range reqs {
		rp, _ := ix.RequestPos(r)
		placeBoth(t, step, dense, ref, r, rp, off, op)
	}
	rp, _ := ix.RequestPos(flex)
	if rem := ref.Remaining(off); rem["gpu"] != 0 {
		t.Fatalf("gpu remaining %v after both grants, want 0", rem["gpu"])
	}
	if g, ok := dense.vector(rp)["gpu"]; !ok || g != 0 {
		t.Fatalf("grant %v, want gpu present at 0", dense.vector(rp))
	}
	if phi := dense.fraction(flex, rp, off, op); phi != 0.05 {
		t.Fatalf("φ = %v, want 0.05 (zero grants excluded)", phi)
	}
}

// placeBoth places r on o in both trackers and checks they agree on the
// verdict, the grant and φ.
func placeBoth(t *testing.T, step int, dense *denseTracker, ref *Tracker, r *bidding.Request, rp int, o *bidding.Offer, op int) {
	t.Helper()
	got, _, phi, ok := dense.place(r, rp, o, op)
	want, _, wantPhi, wantOK := ref.place(r, rp, o, op)
	if ok != wantOK {
		t.Fatalf("step %d: place verdict %v, tracker %v", step, ok, wantOK)
	}
	if !ok {
		return
	}
	sameVector(t, step, got, want)
	if math.Float64bits(phi) != math.Float64bits(wantPhi) {
		t.Fatalf("step %d: φ %v, Fraction %v", step, phi, wantPhi)
	}
}

func sameVector(t *testing.T, step int, got, want resource.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: grant %v, tracker %v", step, got, want)
	}
	for k, q := range want {
		g, ok := got[k]
		if !ok || math.Float64bits(g) != math.Float64bits(q) {
			t.Fatalf("step %d: grant %v, tracker %v", step, got, want)
		}
	}
}
