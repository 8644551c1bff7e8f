package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"syscall"
	"time"
)

// Error classification for networked sessions. A 2PC session is a pure
// function of its inputs — shares are per-session, so a failed session can
// always be re-run from scratch. What decides whether a retry is worth
// attempting is the *kind* of failure: a peer that vanished mid-protocol
// (reset, timeout, injected fault) may well be back for the next attempt,
// while a protocol disagreement (handshake mismatch, malformed payload)
// will fail identically every time.

// IsTransient reports whether err looks like a transient transport failure
// worth retrying with a fresh session: connection loss, peer resets,
// timeouts, injected test faults and truncated streams. Context
// cancellation and deadline expiry are NOT transient — they mean the
// caller gave up, not that the network hiccupped. Unknown errors
// (handshake mismatches, malformed payloads, decode failures) classify as
// permanent, so a retry loop never spins on a deterministic failure.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrInjected) || errors.Is(err, ErrClosed) || errors.Is(err, net.ErrClosed) {
		return true
	}
	// A shed session retries once a server slot may have freed; an idle
	// timeout may be a stalled network rather than a hostile peer.
	if errors.Is(err, ErrServerBusy) || errors.Is(err, ErrIdleTimeout) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ETIMEDOUT) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// mix64 is the splitmix64 finalizer: a tiny, stateless, high-quality
// integer hash. It is NOT cryptographic — it only decorrelates retry
// schedules — but it is fully deterministic, which keeps every backoff
// sequence reproducible in tests (no math/rand, per the prgonly
// invariant).
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Backoff is a deterministic exponential-backoff policy: delays grow
// base·2^attempt, hard-capped by Max (every returned delay respects the
// ceiling, however large the attempt index), with jitter derived from a
// seed so two clients with different seeds desynchronise instead of
// retrying in lockstep while the same seed always reproduces the same
// schedule.
//
// The default equal jitter draws from [d/2, d] — delays keep growing
// monotonically in expectation, which suits a single client pacing its
// own retries. FullJitter draws from [1ns, d] instead (AWS-style full
// jitter): a fleet of clients released by the same event — a provider
// restart, a circuit breaker reopening — spreads across the whole window
// rather than bunching in its upper half, at the cost of occasional very
// short delays.
type Backoff struct {
	// Base is the attempt-0 delay; 0 defaults to 100 ms.
	Base time.Duration
	// Max is the ceiling every delay is capped at; 0 defaults to 2 s.
	Max time.Duration
	// FullJitter widens the jitter window from [d/2, d] to [1ns, d].
	FullJitter bool
}

// Delay returns the wait before retry number attempt (0-based).
func (b Backoff) Delay(attempt int, seed uint64) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	if base > max {
		base = max
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		// d ≤ max/2 here, so the doubling can neither overflow nor
		// overshoot the ceiling by more than one final clamp.
		if d > max/2 {
			d = max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	j := mix64(seed ^ uint64(attempt)*0x51_7CC1B727220A95)
	if b.FullJitter {
		if d <= 1 {
			return d
		}
		return 1 + time.Duration(j%uint64(d))
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(j%uint64(half+1))
}
