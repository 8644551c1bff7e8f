package transport

import (
	"errors"
	"fmt"
	"time"
)

// Hostile-peer resource governance. The protocol above this package is
// proven in the semi-honest model, but a listening provider accepts raw
// TCP bytes from parties it cannot assume are honest: a peer may announce
// absurd frame lengths, trickle one byte per minute, or open a session
// and never speak. Limits turn each of those attacks into a typed,
// bounded failure instead of an OOM or a wedged goroutine. See
// docs/robustness.md, "Threat model".

// Limits bounds what one peer may cost this endpoint. The zero value
// imposes no limits (the historical behaviour).
type Limits struct {
	// IdleTimeout is the longest the peer may go without delivering (or
	// accepting) bytes during a single Send/Recv. Large frames are moved
	// in segments with the deadline re-armed per segment, so the timeout
	// bounds peer *stall* time, not total transfer time: a slow-loris
	// peer dies after IdleTimeout while a slow-but-steady bulk transfer
	// proceeds. 0 disables the deadline.
	IdleTimeout time.Duration
	// MemBudget caps the cumulative bytes this endpoint will agree to
	// receive over the connection's lifetime, charged per peer-declared
	// length *before* any allocation. 0 disables the budget.
	MemBudget uint64
}

// ErrIdleTimeout marks a Send/Recv that died because the peer stopped
// making progress for longer than Limits.IdleTimeout (or an explicit
// receive deadline). It classifies as transient: the stall may be a
// network fault rather than an attack, and a retry against a healthy
// peer can succeed.
var ErrIdleTimeout = errors.New("transport: peer idle timeout")

// ErrServerBusy is the typed load-shedding rejection a server sends when
// its admission limit is reached. It classifies as transient, so a
// client's retry/backoff loop treats a shed session exactly like a
// momentary network failure and tries again once a slot may have freed.
var ErrServerBusy = errors.New("transport: server busy, session shed")

// FrameError reports a frame whose declared length violates a hard bound
// — the wire is malformed or the peer is hostile, so it is permanent.
type FrameError struct {
	Op       string // "send" or "recv"
	Declared uint64 // the announced payload length
	Limit    uint64 // the bound it violated
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("transport: %s frame declares %d bytes, limit %d", e.Op, e.Declared, e.Limit)
}

// BudgetError reports a receive that would push the connection past its
// Limits.MemBudget. Permanent: replaying the same session declares the
// same bytes.
type BudgetError struct {
	Declared uint64 // bytes the rejected operation asked for
	Used     uint64 // budget already consumed
	Budget   uint64 // the session's total allowance
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("transport: session memory budget exhausted: %d bytes requested with %d/%d used",
		e.Declared, e.Used, e.Budget)
}

// Unwrapper is implemented by Conn decorators (context binding, fault
// injection) so budget and deadline requests can reach the transport
// that actually owns the socket.
type Unwrapper interface {
	Unwrap() Conn
}

// unwrapNet walks the decorator chain down to the framed network
// transport, or nil when the chain bottoms out elsewhere (an in-memory
// pipe, a test double).
func unwrapNet(c Conn) *netConn {
	for c != nil {
		if nc, ok := c.(*netConn); ok {
			return nc
		}
		u, ok := c.(Unwrapper)
		if !ok {
			return nil
		}
		c = u.Unwrap()
	}
	return nil
}

// ReserveBudget charges n bytes against the connection's memory budget
// before the caller allocates them, returning a *BudgetError when the
// budget would be exceeded. Connections without a budget (no Limits, an
// in-memory pipe) accept every reservation. Protocol layers that
// reassemble multi-frame payloads call this with the peer-declared total
// so a hostile header is rejected before a single byte is buffered.
func ReserveBudget(c Conn, n uint64) error {
	if nc := unwrapNet(c); nc != nil {
		return nc.reserve(n)
	}
	return nil
}

// SetRecvDeadline arms (or, with the zero time, clears) an explicit
// deadline for subsequent Recv calls on the connection, reporting
// whether the underlying transport supports one. The engine uses it to
// bound the hello and attach exchange independently of the steady-state
// IdleTimeout; whichever deadline is sooner wins.
func SetRecvDeadline(c Conn, t time.Time) bool {
	if nc := unwrapNet(c); nc != nil {
		nc.setRecvDeadline(t)
		return true
	}
	return false
}
