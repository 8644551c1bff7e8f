package transport

import (
	"errors"
	"sync"
	"time"
)

// ErrInjected is the error a Faults injector returns once it trips. Tests
// use it to verify that protocol layers surface transport failures instead
// of deadlocking or corrupting shares.
var ErrInjected = errors.New("transport: injected fault")

// FaultPlan describes a deterministic failure scenario. Every field is
// reproducible: the same plan over the same transcript injects exactly the
// same faults, which is what lets the chaos harness sweep a failure across
// every operation index of a protocol run.
type FaultPlan struct {
	// FailAfter is the number of operations (Sends and Recvs together,
	// across every wrapped connection) performed normally. The next one
	// trips the injector. Negative means never trip (latency-only chaos).
	FailAfter int
	// Corrupt flips a byte of the final permitted operation's payload
	// when that operation is a non-empty Recv, to exercise integrity
	// handling.
	Corrupt bool
	// PartialWrite simulates a connection dying mid-frame: if the
	// tripping operation is a Send, half of its payload is delivered to
	// the peer first. The peer therefore observes a truncated frame — the
	// decode layers must reject it cleanly.
	PartialWrite bool
	// MaxLatency, when non-zero, injects a deterministic per-operation
	// delay in [0, MaxLatency), derived from Seed and the operation index.
	MaxLatency time.Duration
	// Seed drives the latency schedule.
	Seed uint64
	// Stall, when non-zero, delays operation index StallAt by Stall
	// before it executes — a deterministic slow-loris: the peer's
	// matching Send/Recv blocks for the whole stall, which is what the
	// idle-timeout defences must cut short. With StallAt == FailAfter the
	// stall becomes a freeze before death: every later operation waits
	// for the trip, so peers see silence first and resets after.
	Stall   time.Duration
	StallAt int
}

// Delay is the wait injected before operation op: the seeded latency plus
// the stall when op is StallAt.
func (p FaultPlan) Delay(op uint64) time.Duration {
	var d time.Duration
	if p.MaxLatency > 0 {
		d = time.Duration(mix64(p.Seed^mix64(op)) % uint64(p.MaxLatency))
	}
	if p.Stall > 0 && op == uint64(p.StallAt) {
		d += p.Stall
	}
	return d
}

// Faults injects the faults of one FaultPlan into every connection it
// wraps, counting their operations against one budget. A dropped link is
// one wrapped connection; a crashed process is all of its accepted
// connections, wrapped through Listener.SetConnWrap. When the budget trips,
// every wrapped connection is closed together.
//
// Injected failures are accounted the way the wrapped transports account
// their own: they increment Stats.SendErrs/RecvErrs and leave every
// byte/message/round counter untouched, so telemetry span deltas over a
// wrapped connection attribute exactly the bytes that really moved.
type Faults struct {
	plan    FaultPlan
	onDeath func()
	mu      sync.Mutex
	ops     uint64 // operation indices handed out so far
	dead    bool
	conns   []Conn
	die     sync.Once
	severed chan struct{} // closed once every wrapped connection is closed
}

// NewFaults builds an injector for plan. onDeath, when non-nil, runs once
// after the wrapped connections are closed — a process harness's hook to
// close its listener so new dials fail fast, like connecting to a crashed
// process.
func NewFaults(plan FaultPlan, onDeath func()) *Faults {
	return &Faults{plan: plan, onDeath: onDeath, severed: make(chan struct{})}
}

// Wrap registers c with the injector and returns the fault-injecting view
// of it. A connection wrapped after the injector tripped is closed at once
// (a crashed process accepts nothing).
func (f *Faults) Wrap(c Conn) Conn {
	f.mu.Lock()
	dead := f.dead
	if !dead {
		f.conns = append(f.conns, c)
	}
	f.mu.Unlock()
	if dead {
		c.Close()
	}
	return &faultConn{f: f, inner: c}
}

// Kill trips the injector now: any delay in progress is cut short and
// every wrapped connection is closed. Harnesses call it at teardown so a
// long Stall never outlives the test.
func (f *Faults) Kill() {
	f.die.Do(func() {
		f.mu.Lock()
		f.dead = true
		conns := f.conns
		f.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		close(f.severed)
		if f.onDeath != nil {
			f.onDeath()
		}
	})
}

// Ops reports the operations permitted so far across every wrapped
// connection — a clean run's count is the sweep space for fault indices.
func (f *Faults) Ops() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.plan.FailAfter >= 0 && f.ops > uint64(f.plan.FailAfter) {
		return uint64(f.plan.FailAfter)
	}
	return f.ops
}

// Dead reports whether the injector has tripped or been killed.
func (f *Faults) Dead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// take hands out the next operation index, waits out its delay (cut short
// by a Kill) and reports whether the operation may proceed, whether it is
// the last permitted one, and whether it trips the injector. Operations
// after the tripping one block until the connections are closed.
func (f *Faults) take() (ok, last, trip bool) {
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return false, false, false
	}
	op := f.ops
	f.ops++
	f.mu.Unlock()
	if d := f.plan.Delay(op); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-f.severed:
			t.Stop()
		}
	}
	budget := f.plan.FailAfter
	switch {
	case f.Dead():
		return false, false, false
	case budget < 0:
		return true, false, false
	case op < uint64(budget):
		return true, op+1 == uint64(budget), false
	case op == uint64(budget):
		return false, false, true
	}
	<-f.severed
	return false, false, false
}

// faultConn is one connection's view of a Faults injector.
type faultConn struct {
	f     *Faults
	inner Conn
	mu    sync.Mutex
	inj   Stats // only SendErrs/RecvErrs are ever non-zero
}

// Send implements Conn.
func (c *faultConn) Send(p []byte) error {
	ok, _, trip := c.f.take()
	if ok {
		return c.inner.Send(p)
	}
	c.mu.Lock()
	c.inj.SendErrs++
	c.mu.Unlock()
	if !trip {
		return ErrInjected
	}
	defer c.f.Kill()
	if c.f.plan.PartialWrite && len(p) > 1 {
		// Deliver a truncated frame before dying, like a TCP connection
		// reset mid-write. The inner Send's own error (if any) rides
		// along; the injected classification dominates.
		if err := c.inner.Send(p[:len(p)/2]); err != nil {
			return errors.Join(ErrInjected, err)
		}
	}
	return ErrInjected
}

// Recv implements Conn.
func (c *faultConn) Recv() ([]byte, error) {
	ok, last, trip := c.f.take()
	if !ok {
		c.mu.Lock()
		c.inj.RecvErrs++
		c.mu.Unlock()
		if trip {
			c.f.Kill()
		}
		return nil, ErrInjected
	}
	p, err := c.inner.Recv()
	if err == nil && last && c.f.plan.Corrupt && len(p) > 0 {
		p[len(p)/2] ^= 0xFF
	}
	return p, err
}

// Stats implements Conn: the inner counters plus the injected failures.
func (c *faultConn) Stats() Stats {
	s := c.inner.Stats()
	c.mu.Lock()
	s.Add(c.inj)
	c.mu.Unlock()
	return s
}

// ResetStats implements Conn.
func (c *faultConn) ResetStats() {
	c.mu.Lock()
	c.inj = Stats{}
	c.mu.Unlock()
	c.inner.ResetStats()
}

// Close implements Conn.
func (c *faultConn) Close() error { return c.inner.Close() }

// Unwrap exposes the wrapped Conn so budget and deadline requests reach
// the real transport through the fault injector.
func (c *faultConn) Unwrap() Conn { return c.inner }
