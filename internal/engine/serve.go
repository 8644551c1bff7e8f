package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// ErrSessionAborted wraps session errors caused by the server tearing the
// session down (shutdown past the drain grace, or a SessionTimeout
// expiry) rather than by the protocol itself failing.
var ErrSessionAborted = errors.New("engine: session aborted")

// ServeRegistryTCP hosts the model-provider side for many clients: every
// accepted connection runs one session in its own goroutine, so
// simultaneous users are served concurrently. Each connection's hello
// names a model by fingerprint, dispatched against the registry (which may
// gain and lose models while serving); unknown fingerprints fail the
// handshake with the typed mismatch on both sides. A session pays setup
// once, then streams inference requests; a faulted session is parked for
// token re-attachment. sessions > 0 accepts exactly that many connections
// and returns once they all finish; sessions == 0 serves until ctx is
// cancelled (which then returns nil). onSession, when non-nil, observes
// each finished session's error as it completes.
//
// Shutdown is graceful: cancelling ctx stops accepting immediately, but
// in-flight sessions get cfg.DrainGrace to run to completion before their
// connections are force-closed. Sessions cut short by the shutdown (or by
// a cfg.SessionTimeout expiry) report an ErrSessionAborted-wrapped error
// to onSession; drained-but-aborted sessions do not turn a clean shutdown
// into a failure. A panicking session is recovered, surfaced through
// onSession as an error, and never takes down its sibling sessions or the
// accept loop.
//
// Hostile-peer defences: cfg.MaxConcurrentSessions caps in-flight
// sessions — excess connections are shed immediately with a busy-reject
// frame (the client sees transport.ErrServerBusy, which is transient, so
// its retry/backoff loop re-attempts once a slot frees) and never consume
// a `sessions` slot. cfg.IdleTimeout and cfg.MemBudget are installed as
// transport limits on every accepted connection, so a slow-loris peer or
// one declaring giant frames is cut off inside the transport before the
// protocol ever blocks or allocates. Shed sessions increment
// aq2pnn_sessions_shed_total; sessions killed by those limits increment
// aq2pnn_idle_timeouts_total / aq2pnn_frames_rejected_total.
func ServeRegistryTCP(ctx context.Context, l *transport.Listener, reg *Registry, cfg Options, sessions int, onSession func(error)) error {
	reg.setCap(cfg.SessionCache)
	if cfg.IdleTimeout > 0 || cfg.MemBudget > 0 {
		l.SetLimits(transport.Limits{IdleTimeout: cfg.IdleTimeout, MemBudget: cfg.MemBudget})
	}
	var admit chan struct{}
	if cfg.MaxConcurrentSessions > 0 {
		admit = make(chan struct{}, cfg.MaxConcurrentSessions)
	}
	// drainCtx governs in-flight sessions. It survives ctx cancellation
	// by cfg.DrainGrace so accepted sessions may finish; the watcher
	// below links the two. context.WithoutCancel is deliberate — plain
	// inheritance would kill sessions the instant ctx dies.
	drainCtx, cancelDrain := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelDrain()
	serveDone := make(chan struct{})
	defer close(serveDone)
	go func() {
		select {
		case <-serveDone:
		case <-ctx.Done():
			if cfg.DrainGrace > 0 {
				t := time.NewTimer(cfg.DrainGrace)
				defer t.Stop()
				select {
				case <-serveDone:
				case <-t.C:
				}
			}
			cancelDrain()
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	record := func(err error) {
		telemetry.Count("aq2pnn_sessions_total", 1)
		countHostile(err)
		if onSession != nil {
			onSession(err)
		}
		if err != nil {
			telemetry.Count("aq2pnn_session_errors_total", 1)
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	}
	for n := 0; sessions == 0 || n < sessions; {
		conn, err := l.AcceptSession(ctx, drainCtx)
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				// Cancelled: a clean shutdown, not a failure. Individual
				// session errors (including any the shutdown itself
				// aborted) were already reported through onSession and
				// the telemetry counters.
				return nil
			}
			mu.Lock()
			defer mu.Unlock()
			return errors.Join(append(errs, err)...)
		}
		if admit != nil {
			select {
			case admit <- struct{}{}:
			default:
				// At capacity: shed the connection without consuming a
				// `sessions` slot or reporting a session error — the
				// busy-reject frame tells the client to back off and retry.
				wg.Add(1)
				go func() {
					defer wg.Done()
					shedSession(conn)
				}()
				continue
			}
		}
		n++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			err := runSession(drainCtx, conn, reg, cfg)
			if admit != nil {
				<-admit
			}
			record(err)
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return errors.Join(errs...)
}

// shedSession rejects a connection that arrived while every admission
// slot was busy: it sends the busy frame (best-effort — a client that
// already hung up simply misses it) and closes the connection.
func shedSession(conn transport.Conn) {
	defer conn.Close()
	telemetry.Count("aq2pnn_sessions_shed_total", 1)
	if err := conn.Send(busyFrame()); err != nil {
		return
	}
}

// countHostile attributes a finished session's failure to the defence
// that triggered it, so operators can distinguish hostile or broken peers
// from ordinary protocol failures on the metrics endpoint.
func countHostile(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, transport.ErrIdleTimeout) {
		telemetry.Count("aq2pnn_idle_timeouts_total", 1)
	}
	var fe *transport.FrameError
	var be *transport.BudgetError
	var pe *PayloadError
	if errors.As(err, &fe) || errors.As(err, &be) || (errors.As(err, &pe) && pe.Wire) {
		telemetry.Count("aq2pnn_frames_rejected_total", 1)
	}
}

// runSession executes one provider session with panic containment and the
// optional per-session deadline. ctx is the drain context: it outlives
// the accept loop's context by the configured grace. The deadline bounds
// the whole connection lifetime (prefer IdleTimeout for per-frame
// patience; a timed-out-but-established session is still parked for
// re-attachment).
func runSession(ctx context.Context, conn transport.Conn, reg *Registry, cfg Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			telemetry.Count("aq2pnn_session_panics_total", 1)
			err = fmt.Errorf("engine: session panic: %v", r)
		}
	}()
	if cfg.SessionTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.SessionTimeout)
		defer cancel()
		conn = transport.WithContext(ctx, conn)
	}
	err = provideConn(conn, reg, cfg)
	if err != nil && ctx.Err() != nil {
		telemetry.Count("aq2pnn_session_aborts_total", 1)
		err = fmt.Errorf("%w: %w", ErrSessionAborted, err)
	}
	return err
}
