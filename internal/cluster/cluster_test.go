package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"decloud/internal/bidding"
	"decloud/internal/match"
	"decloud/internal/resource"
)

func req(id string, cpu float64) *bidding.Request {
	return &bidding.Request{
		ID: bidding.OrderID(id), Client: bidding.ParticipantID("c-" + id),
		Resources: resource.Vector{resource.CPU: cpu},
		Start:     0, End: 100, Duration: 50, Bid: 1,
	}
}

func off(id string, cpu float64) *bidding.Offer {
	return &bidding.Offer{
		ID: bidding.OrderID(id), Provider: bidding.ParticipantID("p-" + id),
		Resources: resource.Vector{resource.CPU: cpu},
		Start:     0, End: 200, Bid: 1,
	}
}

func TestBuilderCreatesClusterForNewOfferSet(t *testing.T) {
	b := NewBuilder()
	o1, o2 := off("o1", 8), off("o2", 8)
	r := req("r1", 4)
	b.Update(r, []*bidding.Offer{o1, o2})
	clusters := b.Clusters()
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(clusters))
	}
	c := clusters[0]
	if len(c.Offers) != 2 || len(c.Requests) != 1 {
		t.Fatalf("cluster shape: %d offers, %d requests", len(c.Offers), len(c.Requests))
	}
	if !c.HasOffer("o1") || !c.HasOffer("o2") || !c.HasRequest("r1") {
		t.Fatal("membership checks failed")
	}
}

func TestBuilderReusesIdenticalOfferSet(t *testing.T) {
	b := NewBuilder()
	o1, o2 := off("o1", 8), off("o2", 8)
	b.Update(req("r1", 4), []*bidding.Offer{o1, o2})
	b.Update(req("r2", 4), []*bidding.Offer{o2, o1}) // same set, different order
	clusters := b.Clusters()
	if len(clusters) != 1 {
		t.Fatalf("identical offer sets should merge, got %d clusters", len(clusters))
	}
	if len(clusters[0].Requests) != 2 {
		t.Fatalf("requests = %d, want 2", len(clusters[0].Requests))
	}
}

func TestBuilderSubsetInheritsRequest(t *testing.T) {
	b := NewBuilder()
	o1, o2, o3 := off("o1", 8), off("o2", 8), off("o3", 8)
	// First request establishes subset cluster {o1}.
	b.Update(req("r1", 4), []*bidding.Offer{o1})
	// Second request's best set {o1,o2,o3} is a superset: the subset
	// cluster {o1} must receive r2 as well.
	b.Update(req("r2", 4), []*bidding.Offer{o1, o2, o3})
	clusters := b.Clusters()
	var small *Cluster
	for _, c := range clusters {
		if len(c.Offers) == 1 {
			small = c
		}
	}
	if small == nil {
		t.Fatal("subset cluster {o1} vanished")
	}
	if !small.HasRequest("r2") {
		t.Fatal("subset cluster should inherit the new request")
	}
}

func TestBuilderSubsetInheritsSupersetRequests(t *testing.T) {
	b := NewBuilder()
	o1, o2, o3 := off("o1", 8), off("o2", 8), off("o3", 8)
	// r1 forms the big cluster first.
	b.Update(req("r1", 4), []*bidding.Offer{o1, o2, o3})
	// r2's best set {o1} is a subset of the existing cluster: r2's cluster
	// inherits r1 from the superset.
	b.Update(req("r2", 4), []*bidding.Offer{o1})
	var small *Cluster
	for _, c := range b.Clusters() {
		if len(c.Offers) == 1 {
			small = c
		}
	}
	if small == nil {
		t.Fatal("cluster {o1} missing")
	}
	if !small.HasRequest("r1") || !small.HasRequest("r2") {
		t.Fatalf("subset should hold both requests, has %d", len(small.Requests))
	}
}

func TestBuilderIntersectionCluster(t *testing.T) {
	b := NewBuilder()
	o1, o2, o3, o4 := off("o1", 8), off("o2", 8), off("o3", 8), off("o4", 8)
	b.Update(req("r1", 4), []*bidding.Offer{o1, o2, o3})
	b.Update(req("r2", 4), []*bidding.Offer{o2, o3, o4})
	// Intersection {o2,o3} has size 2 > 1 → materialized with r2 and r1's requests.
	var inter *Cluster
	for _, c := range b.Clusters() {
		if len(c.Offers) == 2 && c.HasOffer("o2") && c.HasOffer("o3") {
			inter = c
		}
	}
	if inter == nil {
		t.Fatal("intersection cluster {o2,o3} not created")
	}
	if !inter.HasRequest("r1") || !inter.HasRequest("r2") {
		t.Fatal("intersection cluster should hold both requests")
	}
}

func TestBuilderSingleOfferIntersectionIgnored(t *testing.T) {
	b := NewBuilder()
	o1, o2, o3 := off("o1", 8), off("o2", 8), off("o3", 8)
	b.Update(req("r1", 4), []*bidding.Offer{o1, o2})
	b.Update(req("r2", 4), []*bidding.Offer{o2, o3})
	// Intersection {o2} has size 1: must NOT create a new cluster.
	for _, c := range b.Clusters() {
		if len(c.Offers) == 1 {
			t.Fatalf("singleton intersection cluster created: %v", c.Key())
		}
	}
}

func TestBuilderNoDuplicateRequests(t *testing.T) {
	b := NewBuilder()
	o1 := off("o1", 8)
	r := req("r1", 4)
	b.Update(r, []*bidding.Offer{o1})
	b.Update(r, []*bidding.Offer{o1})
	clusters := b.Clusters()
	if len(clusters) != 1 || len(clusters[0].Requests) != 1 {
		t.Fatalf("duplicate request slipped in: %+v", clusters)
	}
}

func TestBuilderEmptyBestSetIgnored(t *testing.T) {
	b := NewBuilder()
	b.Update(req("r1", 4), nil)
	if len(b.Clusters()) != 0 {
		t.Fatal("empty best set should not create clusters")
	}
}

func TestClustersDeterministicOrder(t *testing.T) {
	mk := func(order []int) []string {
		b := NewBuilder()
		offers := []*bidding.Offer{off("o1", 8), off("o2", 8), off("o3", 8)}
		sets := [][]*bidding.Offer{
			{offers[0], offers[1]},
			{offers[1], offers[2]},
			{offers[0]},
		}
		for i, idx := range order {
			b.Update(req(fmt.Sprintf("r%d", i), 4), sets[idx])
		}
		var keys []string
		for _, c := range b.Clusters() {
			keys = append(keys, c.Key())
		}
		return keys
	}
	// Same update sequence twice must give identical ordering.
	a := mk([]int{0, 1, 2})
	b := mk([]int{0, 1, 2})
	if len(a) != len(b) {
		t.Fatalf("nondeterministic cluster count: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %v vs %v", i, a, b)
		}
	}
}

func TestBuildEndToEnd(t *testing.T) {
	// Two distinct offer "sizes": small requests cluster on small offers
	// under a tight quality band... with Eq. 18's gravity, all requests
	// share the largest feasible offers, so we separate by time windows.
	early := off("early", 8)
	early.Start, early.End = 0, 100
	late := off("late", 8)
	late.Start, late.End = 100, 200

	r1 := req("r1", 4) // window [0,100] fits only "early"
	r2 := req("r2", 4)
	r2.Start, r2.End = 110, 190 // fits only "late"

	scale := match.BlockScale([]*bidding.Request{r1, r2}, []*bidding.Offer{early, late})
	clusters := Build([]*bidding.Request{r1, r2}, []*bidding.Offer{early, late}, scale, match.DefaultConfig())
	if len(clusters) != 2 {
		t.Fatalf("expected 2 time-separated clusters, got %d", len(clusters))
	}
	for _, c := range clusters {
		if len(c.Requests) != 1 || len(c.Offers) != 1 {
			t.Fatalf("unexpected cluster shape: %d offers %d requests", len(c.Offers), len(c.Requests))
		}
	}
}

func TestBuildUnservableRequestDropped(t *testing.T) {
	r := req("r1", 64) // no offer is big enough
	o := off("o1", 8)
	scale := match.BlockScale([]*bidding.Request{r}, []*bidding.Offer{o})
	clusters := Build([]*bidding.Request{r}, []*bidding.Offer{o}, scale, match.DefaultConfig())
	if len(clusters) != 0 {
		t.Fatalf("unservable request produced clusters: %d", len(clusters))
	}
}

// TestClusterPairsAlwaysFeasible: every (request, offer) pair inside any
// built cluster must be match-feasible — the allocation phase relies on
// clusters only containing servable combinations.
func TestClusterPairsAlwaysFeasible(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		var reqs []*bidding.Request
		var offs []*bidding.Offer
		n := 5 + rnd.Intn(20)
		m := 2 + rnd.Intn(8)
		for i := 0; i < n; i++ {
			r := req(fmt.Sprintf("r%02d", i), float64(1+rnd.Intn(8)))
			r.Start = int64(rnd.Intn(50))
			r.End = r.Start + int64(20+rnd.Intn(80))
			r.Duration = 10 + int64(rnd.Intn(10))
			if rnd.Intn(3) == 0 {
				r.Flexibility = 0.5 + rnd.Float64()*0.5
			}
			reqs = append(reqs, r)
		}
		for j := 0; j < m; j++ {
			o := off(fmt.Sprintf("o%02d", j), float64(2+rnd.Intn(15)))
			o.Start = int64(rnd.Intn(30))
			o.End = o.Start + int64(50+rnd.Intn(150))
			offs = append(offs, o)
		}
		scale := match.BlockScale(reqs, offs)
		for _, c := range Build(reqs, offs, scale, match.DefaultConfig()) {
			for _, r := range c.Requests {
				feasibleWithAny := false
				for _, o := range c.Offers {
					if match.Feasible(r, o) {
						feasibleWithAny = true
						break
					}
				}
				if !feasibleWithAny {
					t.Fatalf("trial %d: request %s in cluster %q has no feasible offer",
						trial, r.ID, c.Key())
				}
			}
		}
	}
}

// TestBuilderResetReleasesOrders: a long-lived builder (the order book
// keeps one across clears) must not keep a past epoch's orders or
// clusters reachable after Reset — not through its universes, its
// cluster list, nor the high-water marks of its scratch slices.
func TestBuilderResetReleasesOrders(t *testing.T) {
	b := NewBuilder()
	var offers []weak.Pointer[bidding.Offer]
	var requests []weak.Pointer[bidding.Request]
	var clusters []weak.Pointer[Cluster]
	func() {
		var offs []*bidding.Offer
		for i := 0; i < 6; i++ {
			offs = append(offs, off(fmt.Sprintf("o%d", i), 8))
		}
		b.Reserve(4)
		for i, best := range [][]*bidding.Offer{offs[:4], offs[1:5], offs[2:6], offs[:6]} {
			r := req(fmt.Sprintf("r%d", i), 4)
			requests = append(requests, weak.Make(r))
			b.Update(r, best)
		}
		for _, o := range offs {
			offers = append(offers, weak.Make(o))
		}
		for _, c := range b.Clusters() {
			clusters = append(clusters, weak.Make(c))
		}
		if len(clusters) < 3 {
			t.Fatalf("epoch built %d clusters, want intersections too", len(clusters))
		}
	}()
	b.Reset()
	// A smaller next epoch reuses only the front of every slice.
	b.Update(req("next", 4), []*bidding.Offer{off("n1", 8), off("n2", 8)})
	b.Clusters()
	b.Reset()
	runtime.GC()
	for i, w := range offers {
		if w.Value() != nil {
			t.Errorf("offer %d still reachable after Reset", i)
		}
	}
	for i, w := range requests {
		if w.Value() != nil {
			t.Errorf("request %d still reachable after Reset", i)
		}
	}
	for i, w := range clusters {
		if w.Value() != nil {
			t.Errorf("cluster %d still reachable after Reset", i)
		}
	}
	runtime.KeepAlive(b)
}
