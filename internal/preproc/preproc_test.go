package preproc

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func kit(seq uint32) *Kit { return &Kit{Seq: seq} }

func TestBankClamps(t *testing.T) {
	if d := NewBank(0, 0).depth; d != 1 {
		t.Errorf("depth 0 clamped to %d, want 1", d)
	}
	if d := NewBank(0, MaxDepth+100).depth; d != MaxDepth {
		t.Errorf("depth %d clamped to %d, want MaxDepth %d", MaxDepth+100, d, MaxDepth)
	}
	// The filler may immediately claim depth seqs ahead.
	b := NewBank(0, 3)
	for i := uint32(0); i < 3; i++ {
		seq, ok := b.NextSeq()
		if !ok || seq != i {
			t.Fatalf("NextSeq = (%d, %v), want (%d, true)", seq, ok, i)
		}
	}
}

// TestBankPacing: NextSeq blocks at the depth and unblocks exactly when
// the online path advances past the oldest outstanding seq.
func TestBankPacing(t *testing.T) {
	b := NewBank(0, 2)
	for i := uint32(0); i < 2; i++ {
		seq, ok := b.NextSeq()
		if !ok || seq != i {
			t.Fatalf("NextSeq = (%d, %v), want (%d, true)", seq, ok, i)
		}
		b.Commit(kit(seq))
	}
	claimed := make(chan uint32, 1)
	go func() {
		seq, ok := b.NextSeq()
		if ok {
			claimed <- seq
		}
	}()
	select {
	case seq := <-claimed:
		t.Fatalf("NextSeq claimed %d past the depth", seq)
	case <-time.After(20 * time.Millisecond):
	}
	if k := b.Take(0); k == nil || k.Seq != 0 {
		t.Fatalf("Take(0) = %v", k)
	}
	select {
	case seq := <-claimed:
		if seq != 2 {
			t.Fatalf("unblocked NextSeq claimed %d, want 2", seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("NextSeq still blocked after Take advanced the base")
	}
}

// TestBankTakeBlocksUntilCommit: a Take ahead of the filler waits for the
// commit instead of missing.
func TestBankTakeBlocksUntilCommit(t *testing.T) {
	b := NewBank(5, 2)
	got := make(chan *Kit, 1)
	go func() { got <- b.Take(5) }()
	select {
	case k := <-got:
		t.Fatalf("Take returned %v before any commit", k)
	case <-time.After(20 * time.Millisecond):
	}
	if seq, ok := b.NextSeq(); !ok || seq != 5 {
		t.Fatalf("NextSeq = (%d, %v), want (5, true)", seq, ok)
	}
	b.Commit(kit(5))
	select {
	case k := <-got:
		if k == nil || k.Seq != 5 {
			t.Fatalf("Take(5) = %v", k)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Take still blocked after the commit")
	}
	if len(b.kits) != 0 {
		t.Errorf("bank holds %d kits after the take, want 0", len(b.kits))
	}
}

// TestBankDeadAndStop: both exits wake blocked parties, Take degrades to
// nil, and late commits are dropped.
func TestBankDeadAndStop(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill func(b *Bank)
	}{
		{"dead", func(b *Bank) { b.MarkDead() }},
		{"stopped", func(b *Bank) { b.Stop() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBank(0, 2)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				if k := b.Take(7); k != nil {
					t.Errorf("Take on a %s bank returned %v, want nil", tc.name, k)
				}
			}()
			go func() {
				defer wg.Done()
				b.NextSeq()
				b.NextSeq()
				if _, ok := b.NextSeq(); ok {
					t.Errorf("NextSeq on a %s bank still claims", tc.name)
				}
			}()
			time.Sleep(10 * time.Millisecond)
			tc.kill(b)
			wg.Wait()
			b.Commit(kit(0))
			if len(b.kits) != 0 {
				t.Errorf("commit after %s stored a kit", tc.name)
			}
		})
	}
}

func TestBankWaitFill(t *testing.T) {
	b := NewBank(0, 2)
	done := make(chan bool, 1)
	go func() { done <- b.WaitFill(10) }() // clamped to the depth (2)
	select {
	case <-done:
		t.Fatal("WaitFill returned on an empty bank")
	case <-time.After(20 * time.Millisecond):
	}
	b.NextSeq()
	b.Commit(kit(0))
	b.NextSeq()
	b.Commit(kit(1))
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitFill = false on a healthy bank")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitFill still blocked at the clamped depth level")
	}
	// Death path: WaitFill on an empty bank reports false once the plane
	// dies instead of blocking forever.
	dead := NewBank(0, 2)
	res := make(chan bool, 1)
	go func() { res <- dead.WaitFill(1) }()
	time.Sleep(10 * time.Millisecond)
	dead.MarkDead()
	select {
	case ok := <-res:
		if ok {
			t.Error("WaitFill = true on a dead empty bank")
		}
	case <-time.After(2 * time.Second):
		t.Error("WaitFill still blocked on a dead bank")
	}
}

func TestStoreLifecycle(t *testing.T) {
	s := NewStore(2)
	if err := s.Put(kit(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(kit(0)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate Put returned %v, want a duplicate error", err)
	}
	if err := s.Put(kit(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(kit(2)); err == nil || !strings.Contains(err.Error(), "full") {
		t.Errorf("Put past the cap returned %v, want a full error", err)
	}
	// Taking seq 1 prunes the stale seq 0 too.
	if k := s.Take(1); k == nil || k.Seq != 1 {
		t.Fatalf("Take(1) = %v", k)
	}
	if len(s.kits) != 0 {
		t.Errorf("store holds %d kits after the pruning take, want 0", len(s.kits))
	}
	if k := s.Take(9); k != nil {
		t.Errorf("Take of an unfilled seq = %v, want nil", k)
	}
	if got := NewStore(0).cap; got != 1 {
		t.Errorf("cap 0 clamped to %d, want 1", got)
	}
	if got := NewStore(MaxDepth + 5).cap; got != MaxDepth {
		t.Errorf("cap clamped to %d, want MaxDepth %d", got, MaxDepth)
	}
}

// TestFrameCodec pins the strict wire framing of the fill subprotocol:
// exact length, exact magic, round-tripped seq.
func TestFrameCodec(t *testing.T) {
	p := encodeFrame(demandMagic, 0xDEAD)
	if len(p) != frameLen {
		t.Fatalf("frame length %d, want %d", len(p), frameLen)
	}
	seq, err := decodeFrame(demandMagic, "demand", p)
	if err != nil || seq != 0xDEAD {
		t.Fatalf("decode = (%d, %v)", seq, err)
	}
	if _, err := decodeFrame(ackMagic, "ack", p); err == nil {
		t.Error("demand frame decoded under the ack magic")
	}
	if _, err := decodeFrame(demandMagic, "demand", p[:frameLen-1]); err == nil {
		t.Error("short frame decoded")
	}
	if _, err := decodeFrame(demandMagic, "demand", append(p, 0)); err == nil {
		t.Error("oversized frame decoded")
	}
	if _, err := decodeFrame(demandMagic, "demand", nil); err == nil {
		t.Error("nil frame decoded")
	}
}
