package placement

import (
	"testing"
	"testing/quick"

	"ucc/internal/model"
)

// TestRoundRobinPlacement pins the round-robin layout: item i's r-th copy
// at sites[(i+r) mod len(sites)], primary first, replicas on distinct sites.
func TestRoundRobinPlacement(t *testing.T) {
	sites := []model.SiteID{0, 1, 2}
	pm := Build(RoundRobin, 9, sites, 2)
	if pm.Items() != 9 || pm.Epoch != 0 {
		t.Fatalf("items = %d, epoch = %d", pm.Items(), pm.Epoch)
	}
	for i := 0; i < 9; i++ {
		reps := pm.Replicas(model.ItemID(i))
		if len(reps) != 2 {
			t.Fatalf("item %d: %d replicas", i, len(reps))
		}
		for r, s := range reps {
			if want := sites[(i+r)%len(sites)]; s != want {
				t.Fatalf("item %d copy %d at site %d, want %d", i, r, s, want)
			}
		}
		if pm.Primary(model.ItemID(i)) != reps[0] {
			t.Fatalf("primary mismatch for %d", i)
		}
	}
}

func TestRoundRobinReplicasClamped(t *testing.T) {
	pm := Build(RoundRobin, 4, []model.SiteID{0, 1}, 5)
	if got := len(pm.Replicas(0)); got != 2 {
		t.Fatalf("replicas = %d, want clamp to 2 sites", got)
	}
	pm2 := Build(RoundRobin, 4, []model.SiteID{0, 1}, 0)
	if got := len(pm2.Replicas(0)); got != 1 {
		t.Fatalf("replicas = %d, want min 1", got)
	}
}

// Property: every item is stored somewhere, CopiesAt inverts Replicas, and
// each item has min(replicas, sites) copies.
func TestRoundRobinProperties(t *testing.T) {
	f := func(nItems, nSites, reps uint8) bool {
		I := int(nItems%40) + 1
		S := int(nSites%6) + 1
		R := int(reps%4) + 1
		sites := make([]model.SiteID, S)
		for i := range sites {
			sites[i] = model.SiteID(i)
		}
		pm := Build(RoundRobin, I, sites, R)
		// Round-trip: item ∈ CopiesAt(s) ⇔ s ∈ Replicas(item).
		have := map[model.CopyID]bool{}
		for _, s := range sites {
			for _, it := range pm.CopiesAt(s) {
				have[model.CopyID{Item: it, Site: s}] = true
			}
		}
		for i := 0; i < I; i++ {
			reps := pm.Replicas(model.ItemID(i))
			if len(reps) != min(R, S) {
				return false
			}
			for _, s := range reps {
				if !have[model.CopyID{Item: model.ItemID(i), Site: s}] {
					return false
				}
				delete(have, model.CopyID{Item: model.ItemID(i), Site: s})
			}
		}
		return len(have) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
