package triple

import (
	"strings"
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
)

// TestDealerQueueBounded: a party consuming while its peer never does
// grows the peer's undelivered dealer queue only to MaxPending; the
// generation that would exceed it fails instead of growing without bound.
func TestDealerQueueBounded(t *testing.T) {
	r := ring.New(16)
	fb, err := DealFixedB(prg.NewSeeded(7), r, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := fb.Pool(prg.NewSeeded(8))
	s0, s1 := pool.View(0), pool.View(1)
	for i := 0; i < MaxPending; i++ {
		if _, err := s0.Next(1); err != nil {
			t.Fatalf("triple %d: %v", i, err)
		}
	}
	if _, err := s0.Next(1); err == nil {
		t.Fatal("dealer generated past the MaxPending backlog bound")
	} else if !strings.Contains(err.Error(), "undelivered") {
		t.Fatalf("overflow error %v does not name the backlog", err)
	}
	// The bound is per row count and per party: the starved peer draining
	// its queue re-enables generation, and other row counts are unaffected.
	if _, err := s1.Next(1); err != nil {
		t.Fatalf("peer drain: %v", err)
	}
	if _, err := s0.Next(1); err != nil {
		t.Fatalf("generation after drain: %v", err)
	}
	if _, err := s0.Next(2); err != nil {
		t.Fatalf("other row count under a full backlog: %v", err)
	}
}

// TestDealerQueueTrimmed: fully-delivered row counts drop their queue
// entry, so a long-lived pool cycling through many row counts does not
// accumulate empty headers.
func TestDealerQueueTrimmed(t *testing.T) {
	r := ring.New(16)
	fb, err := DealFixedB(prg.NewSeeded(9), r, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := fb.Pool(prg.NewSeeded(10))
	s0, s1 := pool.View(0), pool.View(1)
	for m := 1; m <= 50; m++ {
		if _, err := s0.Next(m); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Next(m); err != nil {
			t.Fatal(err)
		}
	}
	pool.mu.Lock()
	entries := len(pool.queues)
	pool.mu.Unlock()
	if entries != 0 {
		t.Errorf("pool holds %d queue entries after lockstep delivery, want 0", entries)
	}
}

// TestDealerFamilyQueueBounded: a party consuming while its peer never
// does grows the peer's undelivered FixedBPool queue only to MaxPending;
// the generation that would exceed it fails instead of growing without
// bound, and a row count's entry is trimmed once both views are delivered.
func TestDealerFamilyQueueBounded(t *testing.T) {
	r := ring.New(16)
	fb, err := DealFixedB(prg.NewSeeded(11), r, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := fb.Pool(prg.NewSeeded(12))
	f0, f1 := pool.View(0), pool.View(1)
	for i := 0; i < MaxPending; i++ {
		if _, err := f0.Next(4); err != nil {
			t.Fatalf("family triple %d: %v", i, err)
		}
	}
	if _, err := f0.Next(4); err == nil {
		t.Fatal("family generated past the MaxPending backlog bound")
	} else if !strings.Contains(err.Error(), "undelivered") {
		t.Fatalf("overflow error %v does not name the backlog", err)
	}
	// The bound is per row count and per party: the starved peer draining
	// its queue re-enables generation, and other row counts are unaffected.
	if _, err := f1.Next(4); err != nil {
		t.Fatalf("peer drain: %v", err)
	}
	if _, err := f0.Next(4); err != nil {
		t.Fatalf("generation after drain: %v", err)
	}
	if _, err := f0.Next(5); err != nil {
		t.Fatalf("other row count under a full backlog: %v", err)
	}
	// Drain both sides completely: the per-m entries must be trimmed.
	for i := 0; i < MaxPending; i++ {
		if _, err := f1.Next(4); err != nil {
			t.Fatalf("final drain %d: %v", i, err)
		}
	}
	if _, err := f1.Next(5); err != nil {
		t.Fatal(err)
	}
	pool.mu.Lock()
	entries := len(pool.queues)
	pool.mu.Unlock()
	if entries != 0 {
		t.Errorf("pool holds %d per-m queue entries after full delivery, want 0", entries)
	}
}

// TestMatFamilySingleUse: the bank-backed warm path's adapter hands out
// its precomputed triple exactly once and validates the requested shape.
func TestMatFamilySingleUse(t *testing.T) {
	g := prg.NewSeeded(10)
	r := ring.New(16)
	p0, _ := dealPair(t, g, r, 4, 2, 3)
	f := NewMatFamily(p0)
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
}
