package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Context-aware TCP entrypoints. Cancelling the context aborts an
// in-flight dial or accept and unblocks any Send/Recv on the returned
// connection by closing it — the mechanism by which the engine's public
// TCP API honours deadlines and shutdown.

// DialContext connects to a listening party at addr, retrying until the
// timeout elapses or ctx is cancelled (whichever is sooner), so the two
// party processes may start in either order. Failed attempts back off
// exponentially (25 ms base, 1 s cap) with deterministic jitter derived
// from the address, so a fleet of clients recovering from a provider
// restart spreads its reconnects instead of stampeding. The returned Conn
// is bound to ctx: cancellation closes it.
func DialContext(ctx context.Context, addr string, timeout time.Duration) (Conn, error) {
	deadline := time.Now().Add(timeout)
	seed := mix64(uint64(len(addr)))
	for _, b := range []byte(addr) {
		seed = mix64(seed ^ uint64(b))
	}
	var d net.Dialer
	for attempt := 0; ; attempt++ {
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return bindContext(ctx, NewNetConn(c)), nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("transport: dial %s: %w", addr, ctx.Err())
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
		}
		wait := Backoff{Base: 25 * time.Millisecond, Max: time.Second}.Delay(attempt, seed)
		if rem := time.Until(deadline); wait > rem {
			wait = rem
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("transport: dial %s: %w", addr, ctx.Err())
		case <-t.C:
		}
	}
}

// Listener accepts framed party connections and stays open, so a server
// can host many concurrent sessions.
type Listener struct {
	l    net.Listener
	mu   sync.Mutex
	lim  Limits
	wrap func(Conn) Conn
}

// SetConnWrap installs a decorator applied to every subsequently
// accepted connection, inside the context binding — cancellation still
// severs the real transport through the decorator's Unwrap chain. The
// fleet chaos harness installs a Faults injector's Wrap here, so one
// budget covers all of a backend's connections and a trip closes them
// all, like a crashed process; nil removes the decorator.
func (l *Listener) SetConnWrap(w func(Conn) Conn) {
	l.mu.Lock()
	l.wrap = w
	l.mu.Unlock()
}

// SetLimits applies per-connection resource limits (idle timeout, memory
// budget) to every subsequently accepted connection. Connections already
// accepted keep the limits they were born with.
func (l *Listener) SetLimits(lim Limits) {
	l.mu.Lock()
	l.lim = lim
	l.mu.Unlock()
}

func (l *Listener) limits() (Limits, func(Conn) Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lim, l.wrap
}

// NewListener starts listening on addr.
func NewListener(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address (useful with ":0" ephemeral ports).
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Close stops accepting; a blocked Accept returns an error.
func (l *Listener) Close() error { return l.l.Close() }

// Accept blocks for the next peer connection. Cancelling ctx closes the
// listener and returns ctx's error. The returned Conn is bound to ctx.
func (l *Listener) Accept(ctx context.Context) (Conn, error) {
	return l.AcceptSession(ctx, ctx)
}

// AcceptSession accepts under acceptCtx while binding the returned Conn
// to connCtx. Splitting the two is what makes graceful shutdown possible:
// a server cancels acceptCtx the moment shutdown begins (no new sessions)
// but keeps connCtx alive through a drain grace period, so in-flight
// sessions finish instead of dying mid-protocol.
func (l *Listener) AcceptSession(acceptCtx, connCtx context.Context) (Conn, error) {
	stop := make(chan struct{})
	defer close(stop)
	if acceptCtx.Done() != nil {
		go func() {
			select {
			case <-acceptCtx.Done():
				l.l.Close()
			case <-stop:
			}
		}()
	}
	c, err := l.l.Accept()
	if err != nil {
		if acceptCtx.Err() != nil {
			return nil, acceptCtx.Err()
		}
		return nil, err
	}
	lim, wrap := l.limits()
	conn := Conn(NewNetConnLimits(c, lim))
	if wrap != nil {
		conn = wrap(conn)
	}
	return bindContext(connCtx, conn), nil
}

// WithContext couples an existing Conn's lifetime to ctx: cancellation
// closes the connection, failing any blocked Send/Recv. Servers use it to
// impose per-session deadlines on already-accepted connections.
func WithContext(ctx context.Context, c Conn) Conn { return bindContext(ctx, c) }

// ctxConn couples a Conn's lifetime to a context: a watchdog closes the
// underlying connection on cancellation, failing any blocked Send/Recv.
type ctxConn struct {
	Conn
	stop chan struct{}
	once sync.Once
}

func bindContext(ctx context.Context, c Conn) Conn {
	if ctx.Done() == nil {
		return c
	}
	cc := &ctxConn{Conn: c, stop: make(chan struct{})}
	go func() {
		select {
		case <-ctx.Done():
			c.Close()
		case <-cc.stop:
		}
	}()
	return cc
}

func (c *ctxConn) Close() error {
	c.once.Do(func() { close(c.stop) })
	return c.Conn.Close()
}

// sendPrefixed forwards a mux frame to the decorated Conn, which writes
// it without a copy when it is a netConn.
func (c *ctxConn) sendPrefixed(prefix byte, payload []byte) error {
	return sendPrefixed(c.Conn, prefix, payload)
}

// recvFrame forwards a receive into a caller's buffer to the decorated
// Conn, which reads into it when it is a netConn.
func (c *ctxConn) recvFrame(dst []byte, prefixed bool) (byte, []byte, error) {
	return recvFrame(c.Conn, dst, prefixed)
}

// Unwrap exposes the decorated Conn so budget and deadline requests
// (ReserveBudget, SetRecvDeadline) reach the transport under the
// context binding.
func (c *ctxConn) Unwrap() Conn { return c.Conn }
