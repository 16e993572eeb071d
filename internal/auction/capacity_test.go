package auction

import (
	"fmt"
	"math/rand"
	"testing"

	"decloud/internal/bidding"
	"decloud/internal/resource"
)

func TestIntervalTrackerSchedulesSequentially(t *testing.T) {
	it := NewIntervalCapacity()
	o := &bidding.Offer{
		ID: "o", Provider: "p",
		Resources: resource.Vector{resource.CPU: 4},
		Start:     0, End: 100, Bid: 1,
	}
	// Two full-machine jobs of 40s each: they must serialize, not overlap.
	mk := func(id string) *bidding.Request {
		return &bidding.Request{
			ID: bidding.OrderID(id), Client: "c-" + bidding.ParticipantID(id),
			Resources: resource.Vector{resource.CPU: 4},
			Start:     0, End: 100, Duration: 40, Bid: 1,
		}
	}
	r1, r2, r3 := mk("r1"), mk("r2"), mk("r3")

	g1, s1, ok := it.TryGrant(r1, o)
	if !ok || s1 != 0 {
		t.Fatalf("first grant: ok=%v start=%d", ok, s1)
	}
	it.Commit(r1, o, g1, s1)

	g2, s2, ok := it.TryGrant(r2, o)
	if !ok {
		t.Fatal("second grant should fit after the first")
	}
	if s2 != 40 {
		t.Fatalf("second start = %d, want 40 (after r1)", s2)
	}
	it.Commit(r2, o, g2, s2)

	// Third 40s job cannot finish by t=100 (would need [80, 120)).
	if _, _, ok := it.TryGrant(r3, o); ok {
		t.Fatal("third full-machine job cannot fit in the window")
	}

	sched := it.ScheduleOf("o")
	if len(sched) != 2 || sched[0] != [2]int64{0, 40} || sched[1] != [2]int64{40, 80} {
		t.Fatalf("schedule = %v", sched)
	}
}

func TestIntervalTrackerConcurrentWhenCapacityAllows(t *testing.T) {
	it := NewIntervalCapacity()
	o := &bidding.Offer{
		ID: "o", Provider: "p",
		Resources: resource.Vector{resource.CPU: 4},
		Start:     0, End: 100, Bid: 1,
	}
	mk := func(id string, cpu float64) *bidding.Request {
		return &bidding.Request{
			ID: bidding.OrderID(id), Client: "c-" + bidding.ParticipantID(id),
			Resources: resource.Vector{resource.CPU: cpu},
			Start:     0, End: 100, Duration: 100, Bid: 1,
		}
	}
	// Two half-machine jobs run concurrently from t=0.
	for i := 0; i < 2; i++ {
		r := mk(fmt.Sprintf("r%d", i), 2)
		g, s, ok := it.TryGrant(r, o)
		if !ok || s != 0 {
			t.Fatalf("job %d: ok=%v start=%d", i, ok, s)
		}
		it.Commit(r, o, g, s)
	}
	// A third 2-core job cannot fit anywhere (machine full for the whole window).
	if _, _, ok := it.TryGrant(mk("r2", 2), o); ok {
		t.Fatal("machine is saturated; third job must not fit")
	}
}

// The aggregate model's known blind spot: two full-machine jobs, each
// lasting the whole window, CANNOT run on one machine — but two
// half-window jobs whose windows force overlap can slip through the
// aggregate accounting. Exact scheduling must refuse.
func TestExactSchedulingRejectsForcedOverlap(t *testing.T) {
	o := &bidding.Offer{
		ID: "o", Provider: "p",
		Resources: resource.Vector{resource.CPU: 4},
		Start:     0, End: 100, Bid: 1,
	}
	// Both jobs need the full machine for [0, 60) ∩ their windows force
	// them to overlap: r1 must run in [0,60], r2 in [30,90] with d=60 →
	// r2 can only start at exactly 30, overlapping r1 whichever way.
	r1 := &bidding.Request{
		ID: "r1", Client: "a",
		Resources: resource.Vector{resource.CPU: 4},
		Start:     0, End: 60, Duration: 60, Bid: 1,
	}
	r2 := &bidding.Request{
		ID: "r2", Client: "b",
		Resources: resource.Vector{resource.CPU: 4},
		Start:     30, End: 90, Duration: 60, Bid: 1,
	}

	agg := NewTracker()
	ag := agg.TryGrant(r1, o)
	if ag == nil {
		t.Fatal("aggregate r1")
	}
	agg.Commit(o, ag, r1.Duration)
	if agg.TryGrant(r2, o) == nil {
		t.Skip("aggregate model happened to reject; nothing to contrast")
	}

	exact := NewIntervalCapacity()
	g, s, ok := exact.TryGrant(r1, o)
	if !ok {
		t.Fatal("exact r1")
	}
	exact.Commit(r1, o, g, s)
	if _, _, ok := exact.TryGrant(r2, o); ok {
		t.Fatal("exact scheduling admitted a physically impossible overlap")
	}
}

func TestExactSchedulingEndToEnd(t *testing.T) {
	market := workloadMulti(t)
	cfg := DefaultConfig()
	cfg.Evidence = []byte("exact")
	cfg.ExactScheduling = true
	out := Run(market.Requests, market.Offers, cfg)
	if len(out.Matches) == 0 {
		t.Fatal("exact scheduling produced no trades")
	}
	// Re-verify: no offer is oversubscribed at any instant. Rebuild the
	// schedule from the matches and sweep.
	type slot struct {
		start, end int64
		res        resource.Vector
	}
	byOffer := map[bidding.OrderID][]slot{}
	for _, m := range out.Matches {
		if m.Start < m.Request.Start || m.Start+m.Request.Duration > m.Request.End {
			t.Fatalf("match %s scheduled outside its window: start=%d", m.Request.ID, m.Start)
		}
		if m.Start < m.Offer.Start || m.Start+m.Request.Duration > m.Offer.End {
			t.Fatalf("match %s scheduled outside the offer window", m.Request.ID)
		}
		byOffer[m.Offer.ID] = append(byOffer[m.Offer.ID], slot{
			start: m.Start, end: m.Start + m.Request.Duration, res: m.Granted,
		})
	}
	for _, m := range out.Matches {
		o := m.Offer
		slots := byOffer[o.ID]
		for _, s := range slots {
			// usage at instant s.start
			usage := make(resource.Vector)
			for _, other := range slots {
				if other.start <= s.start && s.start < other.end {
					usage = usage.Add(other.res)
				}
			}
			for _, k := range usage.Kinds() {
				if usage[k] > o.Resources[k]+1e-6 {
					t.Fatalf("offer %s oversubscribed at t=%d: %v > %v of %s",
						o.ID, s.start, usage[k], o.Resources[k], k)
				}
			}
		}
	}
	// The exact model can only be more conservative than the aggregate one.
	agg := Run(market.Requests, market.Offers, DefaultConfig())
	if len(out.Matches) > len(agg.Matches)+2 {
		t.Fatalf("exact scheduling matched more than aggregate: %d vs %d",
			len(out.Matches), len(agg.Matches))
	}
}

func TestExactSchedulingDeterministic(t *testing.T) {
	run := func() *Outcome {
		reqs, offs := randomMarket(rand.New(rand.NewSource(7)), 40, 8)
		cfg := DefaultConfig()
		cfg.Evidence = []byte("det")
		cfg.ExactScheduling = true
		return Run(reqs, offs, cfg)
	}
	a, b := run(), run()
	if len(a.Matches) != len(b.Matches) {
		t.Fatal("nondeterministic match count under exact scheduling")
	}
	for i := range a.Matches {
		if a.Matches[i].Start != b.Matches[i].Start || a.Matches[i].Payment != b.Matches[i].Payment {
			t.Fatalf("nondeterministic match %d", i)
		}
	}
}
