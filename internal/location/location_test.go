package location

import (
	"math"
	"testing"
	"time"

	"ndsm/internal/svcdesc"
)

var t0 = time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)

// entry returns node's entry from All, and whether it is tracked.
func entry(s *Service, node string) (Entry, bool) {
	for _, e := range s.All() {
		if e.Node == node {
			return e, true
		}
	}
	return Entry{}, false
}

func TestUpdateAndGet(t *testing.T) {
	s := NewService()
	s.Update("n1", svcdesc.Location{X: 1, Y: 2}, "bldg/floor1", t0)
	e, ok := entry(s, "n1")
	if !ok {
		t.Fatal("n1 not tracked")
	}
	if e.Physical.X != 1 || e.Physical.Y != 2 || e.Logical != "bldg/floor1" || !e.UpdatedAt.Equal(t0) {
		t.Fatalf("entry = %+v", e)
	}
	if e.VX != 0 || e.VY != 0 {
		t.Fatalf("first update should have zero velocity: %+v", e)
	}
	if _, ok := entry(s, "missing"); ok {
		t.Fatal("untracked node listed")
	}
}

func TestUpdateKeepsLogicalWhenEmpty(t *testing.T) {
	s := NewService()
	s.Update("n1", svcdesc.Location{}, "ward-3", t0)
	s.Update("n1", svcdesc.Location{X: 5}, "", t0.Add(time.Second))
	e, _ := entry(s, "n1")
	if e.Logical != "ward-3" {
		t.Fatalf("logical lost: %q", e.Logical)
	}
	s.Update("n1", svcdesc.Location{X: 6}, "ward-4", t0.Add(2*time.Second))
	e, _ = entry(s, "n1")
	if e.Logical != "ward-4" {
		t.Fatalf("logical not replaced: %q", e.Logical)
	}
}

func TestVelocityEstimation(t *testing.T) {
	s := NewService()
	s.Update("m", svcdesc.Location{X: 0, Y: 0}, "", t0)
	s.Update("m", svcdesc.Location{X: 10, Y: -5}, "", t0.Add(2*time.Second))
	e, _ := entry(s, "m")
	if math.Abs(e.VX-5) > 1e-9 || math.Abs(e.VY+2.5) > 1e-9 {
		t.Fatalf("velocity = (%v, %v), want (5, -2.5)", e.VX, e.VY)
	}
}

func TestVelocityZeroDT(t *testing.T) {
	s := NewService()
	s.Update("m", svcdesc.Location{X: 0}, "", t0)
	s.Update("m", svcdesc.Location{X: 10}, "", t0.Add(time.Second)) // VX=10
	s.Update("m", svcdesc.Location{X: 20}, "", t0.Add(time.Second)) // same timestamp
	e, _ := entry(s, "m")
	if e.VX != 10 {
		t.Fatalf("zero-dt update should keep previous velocity, got %v", e.VX)
	}
}

func TestPredict(t *testing.T) {
	s := NewService()
	s.Update("m", svcdesc.Location{X: 0, Y: 0}, "", t0)
	s.Update("m", svcdesc.Location{X: 10, Y: 0}, "", t0.Add(time.Second))
	e, _ := entry(s, "m")
	if pos := e.PredictAt(t0.Add(3 * time.Second)); math.Abs(pos.X-30) > 1e-9 {
		t.Fatalf("predicted X = %v, want 30", pos.X)
	}
	// Prediction at or before the last update returns the reported position.
	if pos := e.PredictAt(t0); pos.X != 10 {
		t.Fatalf("past prediction = %v, want last position", pos.X)
	}
}

func TestNearestK(t *testing.T) {
	s := NewService()
	s.Update("a", svcdesc.Location{X: 1, Y: 0}, "", t0)
	s.Update("b", svcdesc.Location{X: 10, Y: 0}, "", t0)
	s.Update("c", svcdesc.Location{X: 5, Y: 0}, "", t0)
	got := s.NearestK(svcdesc.Location{X: 0, Y: 0}, 2)
	if len(got) != 2 || got[0].Node != "a" || got[1].Node != "c" {
		t.Fatalf("NearestK = %+v", got)
	}
	all := s.NearestK(svcdesc.Location{}, 10)
	if len(all) != 3 {
		t.Fatalf("NearestK with k>n returned %d", len(all))
	}
}

func TestWithin(t *testing.T) {
	s := NewService()
	s.Update("a", svcdesc.Location{X: 1, Y: 0}, "", t0)
	s.Update("b", svcdesc.Location{X: 10, Y: 0}, "", t0)
	got := s.Within(svcdesc.Location{}, 5)
	if len(got) != 1 || got[0].Node != "a" {
		t.Fatalf("Within = %+v", got)
	}
}

func TestInLogicalArea(t *testing.T) {
	s := NewService()
	s.Update("bed12", svcdesc.Location{}, "hospital/ward-3/bed-12", t0)
	s.Update("bed13", svcdesc.Location{}, "hospital/ward-3/bed-13", t0)
	s.Update("lab", svcdesc.Location{}, "hospital/lab", t0)
	s.Update("ward3", svcdesc.Location{}, "hospital/ward-3", t0)

	got := s.InLogicalArea("hospital/ward-3")
	if len(got) != 3 {
		t.Fatalf("InLogicalArea = %d entries, want 3", len(got))
	}
	got = s.InLogicalArea("hospital/ward-3/")
	if len(got) != 3 {
		t.Fatalf("trailing slash handling: %d", len(got))
	}
	got = s.InLogicalArea("hospital")
	if len(got) != 4 {
		t.Fatalf("root area: %d", len(got))
	}
	// Prefix must respect path boundaries: "hospital/ward" is not an
	// ancestor of "hospital/ward-3".
	got = s.InLogicalArea("hospital/ward")
	if len(got) != 0 {
		t.Fatalf("partial segment matched: %+v", got)
	}
}

func TestRemove(t *testing.T) {
	s := NewService()
	s.Update("n", svcdesc.Location{}, "", t0)
	s.Remove("n")
	if _, ok := entry(s, "n"); ok {
		t.Fatal("entry survived Remove")
	}
	s.Remove("n") // idempotent
}

func TestAllSorted(t *testing.T) {
	s := NewService()
	for _, n := range []string{"c", "a", "b"} {
		s.Update(n, svcdesc.Location{}, "", t0)
	}
	all := s.All()
	if len(all) != 3 || all[0].Node != "a" || all[2].Node != "c" {
		t.Fatalf("All = %+v", all)
	}
}
