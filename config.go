package aq2pnn

import (
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/ot"
)

// Options is the parameter set both parties of a secure inference agree on
// — carrier ring, seed, truncation and ReLU widths, reveal mode — plus the
// retry, serving and preprocessing knobs of the networked entrypoints. A
// Trace set here is exported with WriteChromeTrace or TraceTable.
type Options = engine.Options

// InferenceConfig controls every secure-inference entrypoint: local
// (SecureInfer), batched (SecureInferBatch) and networked (ServeModelTCP,
// Dial/OpenSession, SecureInferTCP). It embeds the engine Options, whose
// fields stay promoted (cfg.CarrierBits, cfg.Retries, …), and adds the
// knobs the facade consumes itself. A composite literal names the embedded
// set: InferenceConfig{Options: Options{CarrierBits: 16}, DemoGroup: true}.
// The zero value is a working configuration.
type InferenceConfig struct {
	Options
	// DemoGroup selects the small fast OT group on the TCP entrypoints
	// (NOT cryptographically strong; demos and tests only).
	DemoGroup bool
	// DialTimeout bounds the connection retry window of Dial and
	// SecureInferTCP; 0 means 10 seconds.
	DialTimeout time.Duration
	// ServeSessions makes ServeModelTCP return after that many sessions
	// complete; 0 serves until its context is cancelled.
	ServeSessions uint
	// MetricsAddr, when non-empty, makes ServeModelTCP serve /metrics
	// (Prometheus text) and /debug/pprof on that address for its lifetime.
	// An address without a host (":9090") binds loopback only: the
	// endpoint exposes operational detail, so reaching it from another
	// machine requires an explicit interface address.
	MetricsAddr string
}

// options resolves the engine options: the embedded set, with DemoGroup
// selecting the fast OT group.
func (c InferenceConfig) options() Options {
	o := c.Options
	if c.DemoGroup {
		o.Group = ot.TestGroup()
	}
	return o
}
