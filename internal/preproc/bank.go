package preproc

import (
	"fmt"
	"sync"

	"aq2pnn/internal/telemetry"
)

// Bank is the client-side kit buffer: the filler commits kits ahead of
// demand, the online path takes them in seq order. Take blocks on an
// empty bank only until the filler catches up — it returns nil only once
// the plane is dead (filler exited) or stopped (session teardown), which
// is the online path's signal to degrade to synchronous generation.
type Bank struct {
	mu   sync.Mutex
	cond *sync.Cond
	kits map[uint32]*Kit
	// base is the next seq the online path will request; next is the next
	// seq the filler will claim. The filler runs at most depth seqs ahead
	// of base, so the bank never holds more than depth kits.
	base, next    uint32
	depth         int
	dead, stopped bool
}

// NewBank sizes a bank starting at seq start. depth — how far ahead of
// the online path the filler runs — is clamped to [1, MaxDepth].
func NewBank(start uint32, depth int) *Bank {
	if depth < 1 {
		depth = 1
	}
	if depth > MaxDepth {
		depth = MaxDepth
	}
	b := &Bank{kits: map[uint32]*Kit{}, base: start, next: start, depth: depth}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// NextSeq blocks until the filler may run another seq (fewer than depth
// seqs ahead of the online path) and claims it. ok=false means
// the bank was stopped or marked dead — the filler's clean exit signal.
func (b *Bank) NextSeq() (seq uint32, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.stopped && !b.dead && b.next-b.base >= uint32(b.depth) {
		b.cond.Wait()
	}
	if b.stopped || b.dead {
		return 0, false
	}
	seq = b.next
	b.next++
	return seq, true
}

// Commit stores a filled kit and wakes any online Take waiting for it.
func (b *Bank) Commit(k *Kit) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped || b.dead || k.Seq < b.base {
		return
	}
	b.kits[k.Seq] = k
	telemetry.Count("aq2pnn_preproc_filled_total", 1)
	telemetry.SetGauge("aq2pnn_preproc_bank_fill", int64(len(b.kits)))
	b.cond.Broadcast()
}

// Take removes and returns the kit for seq, blocking while the filler is
// still behind. It returns nil once the plane is dead or stopped — the
// caller then counts a starvation and generates synchronously.
func (b *Bank) Take(seq uint32) *Kit {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if k, ok := b.kits[seq]; ok {
			delete(b.kits, seq)
			b.base = seq + 1
			telemetry.SetGauge("aq2pnn_preproc_bank_fill", int64(len(b.kits)))
			b.cond.Broadcast()
			return k
		}
		if b.dead || b.stopped {
			return nil
		}
		b.cond.Wait()
	}
}

// WaitFill blocks until the bank holds at least n kits (clamped to the
// depth, the most the filler will ever run ahead) and reports whether
// the level was reached — false means the plane died first. Session
// warm-up uses it to move the first inferences' fill wait off the
// measured online path.
func (b *Bank) WaitFill(n int) bool {
	if n > b.depth {
		n = b.depth
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.dead && !b.stopped && len(b.kits) < n {
		b.cond.Wait()
	}
	return len(b.kits) >= n
}

// MarkDead records that the filler exited: every blocked and future Take
// misses, degrading the online path to synchronous generation.
func (b *Bank) MarkDead() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.dead {
		b.dead = true
		telemetry.SetGauge("aq2pnn_preproc_bank_fill", 0)
	}
	b.cond.Broadcast()
}

// Stop shuts the bank down for session teardown: the filler's next
// NextSeq returns ok=false and blocked calls wake.
func (b *Bank) Stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.stopped {
		b.stopped = true
		telemetry.SetGauge("aq2pnn_preproc_bank_fill", 0)
	}
	b.cond.Broadcast()
}

// Store is the provider-side kit buffer. The provider's filler commits
// before acking, the steady-state loop takes kits as warm inference
// requests name them; the client's bank depth paces demand, and the
// capacity bound is the defence against a client that does not.
type Store struct {
	mu   sync.Mutex
	kits map[uint32]*Kit
	cap  int
}

// NewStore builds a store holding at most cap kits (clamped to
// [1, MaxDepth]).
func NewStore(cap int) *Store {
	if cap < 1 {
		cap = 1
	}
	if cap > MaxDepth {
		cap = MaxDepth
	}
	return &Store{kits: map[uint32]*Kit{}, cap: cap}
}

// Put commits a filled kit. A duplicate seq or a full store is a protocol
// violation — the demand subprotocol is strictly sequential and paced.
func (s *Store) Put(k *Kit) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.kits[k.Seq]; ok {
		return fmt.Errorf("preproc: duplicate kit for seq %d", k.Seq)
	}
	if len(s.kits) >= s.cap {
		return fmt.Errorf("preproc: store full at %d kits (demand outran consumption)", s.cap)
	}
	s.kits[k.Seq] = k
	telemetry.Count("aq2pnn_preproc_filled_total", 1)
	telemetry.SetGauge("aq2pnn_preproc_bank_fill", int64(len(s.kits)))
	return nil
}

// Take removes and returns the kit for seq (nil when absent), pruning
// every older kit — a warm request for seq implies the client has
// advanced past everything before it.
func (s *Store) Take(seq uint32) *Kit {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.kits[seq]
	for have := range s.kits {
		if have <= seq {
			delete(s.kits, have)
		}
	}
	telemetry.SetGauge("aq2pnn_preproc_bank_fill", int64(len(s.kits)))
	return k
}
