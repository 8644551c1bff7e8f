package triple

import (
	"fmt"
	"strings"
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
)

// TestDealerQueueBounded: a party consuming while its peer never does
// grows the peer's undelivered queue only to MaxPending; the generation
// that would exceed it fails instead of growing without bound.
func TestDealerQueueBounded(t *testing.T) {
	d := NewDealer(prg.NewSeeded(7))
	r := ring.New(16)
	s0 := d.SourceFor(0)
	for i := 0; i < MaxPending; i++ {
		if _, err := s0.MatTriple(r, 1, 2, 3); err != nil {
			t.Fatalf("triple %d: %v", i, err)
		}
	}
	if _, err := s0.MatTriple(r, 1, 2, 3); err == nil {
		t.Fatal("dealer generated past the MaxPending backlog bound")
	} else if !strings.Contains(err.Error(), "undelivered") {
		t.Fatalf("overflow error %v does not name the backlog", err)
	}
	// The bound is per shape and per party: the starved peer draining its
	// queue re-enables generation, and other shapes are unaffected.
	s1 := d.SourceFor(1)
	if _, err := s1.MatTriple(r, 1, 2, 3); err != nil {
		t.Fatalf("peer drain: %v", err)
	}
	if _, err := s0.MatTriple(r, 1, 2, 3); err != nil {
		t.Fatalf("generation after drain: %v", err)
	}
	if _, err := s0.MatTriple(r, 2, 2, 3); err != nil {
		t.Fatalf("other shape under a full backlog: %v", err)
	}
}

// TestDealerQueueTrimmed: fully-delivered shapes drop their queue entry,
// so long-lived dealers cycling through many shapes do not accumulate
// empty headers.
func TestDealerQueueTrimmed(t *testing.T) {
	d := NewDealer(prg.NewSeeded(8))
	r := ring.New(16)
	s0, s1 := d.SourceFor(0), d.SourceFor(1)
	for m := 1; m <= 50; m++ {
		if _, err := s0.MatTriple(r, m, 2, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.MatTriple(r, m, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	entries := len(d.queue)
	d.mu.Unlock()
	if entries != 0 {
		t.Errorf("dealer holds %d queue entries after lockstep delivery, want 0", entries)
	}
}

// TestDealerFamilyQueueBounded: the same backlog bound holds on the
// per-family queues of a dealer family and of a FixedBPool, and a
// family's per-m entries are trimmed once both views are delivered.
func TestDealerFamilyQueueBounded(t *testing.T) {
	r := ring.New(16)
	d := NewDealer(prg.NewSeeded(9))
	fb, err := DealFixedB(prg.NewSeeded(11), r, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := fb.Pool(prg.NewSeeded(12))
	for _, c := range []struct {
		name    string
		views   func(party int) (Family, error)
		entries func() int
	}{
		{"dealer", func(party int) (Family, error) { return d.Family(party, "conv1", r, 2, 3) }, func() int {
			d.mu.Lock()
			defer d.mu.Unlock()
			return len(d.families[fmt.Sprintf("conv1|%s|2x3", r)].queues)
		}},
		{"FixedBPool", func(party int) (Family, error) { return pool.View(party), nil }, func() int {
			pool.mu.Lock()
			defer pool.mu.Unlock()
			return len(pool.queues)
		}},
	} {
		f0, err := c.views(0)
		if err != nil {
			t.Fatal(err)
		}
		f1, err := c.views(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < MaxPending; i++ {
			if _, err := f0.Next(4); err != nil {
				t.Fatalf("%s: family triple %d: %v", c.name, i, err)
			}
		}
		if _, err := f0.Next(4); err == nil {
			t.Fatalf("%s: family generated past the MaxPending backlog bound", c.name)
		}
		if _, err := f1.Next(4); err != nil {
			t.Fatalf("%s: peer drain: %v", c.name, err)
		}
		if _, err := f0.Next(4); err != nil {
			t.Fatalf("%s: generation after drain: %v", c.name, err)
		}
		// Drain both sides completely: the per-m entry must be trimmed.
		for i := 0; i < MaxPending; i++ {
			if _, err := f1.Next(4); err != nil {
				t.Fatalf("%s: final drain %d: %v", c.name, i, err)
			}
		}
		if per := c.entries(); per != 0 {
			t.Errorf("%s: family holds %d per-m queue entries after full delivery, want 0", c.name, per)
		}
	}
}

// TestMatFamilySingleUse: the bank-backed warm path's adapter hands out
// its precomputed triple exactly once and validates the requested shape.
func TestMatFamilySingleUse(t *testing.T) {
	g := prg.NewSeeded(10)
	r := ring.New(16)
	p0, _ := DealMat(g, r, 4, 2, 3)
	f := NewMatFamily(p0)
	for i, b := range f.BShare() {
		if b != p0.B[i] {
			t.Fatal("BShare diverges from the precomputed triple's B")
		}
	}
	if _, err := f.Next(5); err == nil {
		t.Error("Next with a mismatched row count succeeded")
	}
	got, err := f.Next(4)
	if err != nil || got != p0 {
		t.Fatalf("Next = (%v, %v), want the precomputed triple", got, err)
	}
	if _, err := f.Next(4); err == nil {
		t.Error("second Next on a single-use family succeeded")
	}
	if f.BShare() == nil {
		t.Error("BShare unavailable after consumption")
	}
}
