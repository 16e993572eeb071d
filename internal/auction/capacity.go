package auction

import (
	"slices"

	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// Capacity accounting during packing follows one of two models. The
// paper's Const. 7 semantics — the commodity is resource·time, with
// instantaneous caps per grant but no check that concurrent placements
// fit together at every moment — is the dense block tracker (dense.go),
// with the map-keyed Tracker as its oracle. IntervalTracker is the exact
// model: every grant is scheduled at a concrete start time, and the sum
// of concurrent grants never exceeds the machine at ANY instant.
// Stricter than the paper's model; an extension for callers that need
// physically executable schedules.

// placement is one scheduled grant on a machine.
type placement struct {
	start, end int64
	res        resource.Vector
}

// IntervalTracker schedules grants at concrete times with exact
// instantaneous capacity accounting per offer.
type IntervalTracker struct {
	placed map[bidding.OrderID][]placement
}

// NewIntervalCapacity returns the exact-scheduling model.
func NewIntervalCapacity() *IntervalTracker {
	return &IntervalTracker{placed: make(map[bidding.OrderID][]placement)}
}

// Clone deep-copies the schedule.
func (it *IntervalTracker) Clone() *IntervalTracker {
	c := &IntervalTracker{placed: make(map[bidding.OrderID][]placement, len(it.placed))}
	for id, ps := range it.placed {
		c.placed[id] = append([]placement(nil), ps...)
	}
	return c
}

// TryGrant finds the earliest start time in the feasible window at which
// the request fits alongside every already-scheduled grant, instant by
// instant. Candidate start times are the window opening plus the end
// times of existing placements (a classic earliest-fit argument: if any
// feasible start exists, one of these is feasible).
func (it *IntervalTracker) TryGrant(r *bidding.Request, o *bidding.Offer) (resource.Vector, int64, bool) {
	if !bidding.TimeCompatible(r, o) || !r.WithinReach(o) {
		return nil, 0, false
	}
	lo := r.Start
	if o.Start > lo {
		lo = o.Start
	}
	hi := r.End
	if o.End < hi {
		hi = o.End
	}
	latest := hi - r.Duration
	if latest < lo {
		return nil, 0, false
	}

	existing := it.placed[o.ID]
	candidates := []int64{lo}
	for _, p := range existing {
		if p.end >= lo && p.end <= latest {
			candidates = append(candidates, p.end)
		}
	}
	slices.Sort(candidates)

	flex := r.Flex()
	for _, s := range candidates {
		peak := it.peakUsage(existing, s, s+r.Duration)
		granted := make(resource.Vector, len(r.Resources))
		fits := true
		for k, need := range r.Resources {
			if need <= 0 {
				continue
			}
			free := o.Resources[k] - peak[k]
			g := need
			if free < g {
				g = free
			}
			if g < need*flex-1e-9 {
				fits = false
				break
			}
			granted[k] = g
		}
		if fits && !granted.IsZero() {
			return granted, s, true
		}
	}
	return nil, 0, false
}

// peakUsage computes the componentwise maximum concurrent usage of the
// placements over [from, to) by sweeping placement boundaries.
func (it *IntervalTracker) peakUsage(ps []placement, from, to int64) resource.Vector {
	peak := make(resource.Vector)
	// Evaluate usage just after every boundary inside the window, plus
	// the window start itself.
	points := []int64{from}
	for _, p := range ps {
		if p.start > from && p.start < to {
			points = append(points, p.start)
		}
	}
	for _, t := range points {
		usage := make(resource.Vector)
		for _, p := range ps {
			if p.start <= t && t < p.end {
				usage = usage.Add(p.res)
			}
		}
		for _, k := range usage.Kinds() {
			if usage[k] > peak[k] {
				peak[k] = usage[k]
			}
		}
	}
	return peak
}

// Commit schedules the grant.
func (it *IntervalTracker) Commit(r *bidding.Request, o *bidding.Offer, granted resource.Vector, start int64) {
	it.placed[o.ID] = append(it.placed[o.ID], placement{
		start: start,
		end:   start + r.Duration,
		res:   granted.Clone(),
	})
}

// ScheduleOf returns the committed placements on an offer as
// (start, end) pairs, sorted by start — for inspection and tests.
func (it *IntervalTracker) ScheduleOf(offerID bidding.OrderID) [][2]int64 {
	ps := append([]placement(nil), it.placed[offerID]...)
	slices.SortFunc(ps, func(a, b placement) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	out := make([][2]int64, len(ps))
	for i, p := range ps {
		out[i] = [2]int64{p.start, p.end}
	}
	return out
}
