package aq2pnn

import (
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/telemetry"
)

// ComputeConfig holds the per-inference protocol knobs: everything that
// shapes one inference's transcript and results, independent of how (or
// whether) the two parties are networked.
type ComputeConfig struct {
	// CarrierBits is the ring width ℓc (0 = model bits + 4, the paper's
	// adaptive rule).
	CarrierBits uint
	// Seed makes the protocol randomness reproducible.
	Seed uint64
	// LocalTrunc selects the paper's zero-communication local truncation
	// for requantization (the ablation of EXPERIMENTS.md) instead of the
	// default faithful truncation.
	LocalTrunc bool
	// ABReLUBits contracts the sign computation of every ReLU onto a
	// narrower ring ("output bits sent to the ABReLU operator"); 0 keeps
	// the carrier width.
	ABReLUBits uint
	// RevealClassOnly replaces the logit reveal with a secure argmax: the
	// user learns only the predicted class.
	RevealClassOnly bool
	// Workers caps local compute parallelism (GEMM rows, SCM token
	// matrices, batch pipelining); 0 uses all CPUs. Results are
	// bit-identical at every setting.
	Workers uint
	// Trace, when non-nil, records a span per protocol phase, layer and
	// secure operator, each carrying its exact share of the measured
	// traffic. Export with WriteChromeTrace or TraceTable. A nil tracer
	// costs one branch per instrumentation point and never changes results.
	Trace *Tracer
	// FillWorkers caps the preprocessing filler's local compute parallelism
	// independently of Workers, so background fill does not steal the
	// online path's CPUs; 0 uses all CPUs. Ignored unless BankDepth
	// enables the preprocessing plane.
	FillWorkers uint
}

// NetConfig holds the session-level knobs of the networked entrypoints:
// dial/retry behaviour, serving limits and budgets, operational endpoints.
// Local runs (SecureInfer, SecureInferBatch) ignore it.
type NetConfig struct {
	// DemoGroup selects the small fast OT group on the TCP entrypoints
	// (NOT cryptographically strong; demos and tests only).
	DemoGroup bool
	// DialTimeout bounds the connection retry window of Dial and
	// SecureInferTCP; 0 means 10 seconds.
	DialTimeout time.Duration
	// Retries is how many additional attempts the client makes after a
	// transient failure (connection reset, provider crash mid-protocol).
	// A Session re-attaches to the provider's cached state through its
	// resumption token and recomputes only the interrupted inference
	// (falling back to a fresh setup if the provider no longer holds the
	// state). Permanent errors (handshake or payload
	// mismatches) are never retried. 0 = a single attempt.
	Retries uint
	// RetryBase is the first retry's backoff delay (default 100ms),
	// doubling per attempt with deterministic seed-derived jitter.
	RetryBase time.Duration
	// SessionTimeout bounds one attempt end to end on both sides: each
	// Session.Infer attempt, and each ServeModelTCP connection (the whole
	// session lifetime — prefer IdleTimeout for per-frame patience); 0
	// disables it.
	SessionTimeout time.Duration
	// DrainGrace is how long ServeModelTCP lets in-flight sessions finish
	// after its context is cancelled before force-closing them; 0 tears
	// sessions down immediately on cancellation.
	DrainGrace time.Duration
	// ServeSessions makes ServeModelTCP return after that many sessions
	// complete; 0 serves until its context is cancelled.
	ServeSessions uint
	// MaxConcurrentSessions caps ServeModelTCP's in-flight sessions.
	// Connections past the cap are shed immediately with a busy-reject
	// the client classifies as transient (its retry/backoff loop
	// re-attempts once a slot may have freed); 0 = unlimited.
	MaxConcurrentSessions int
	// IdleTimeout is ServeModelTCP's per-frame patience: a peer that
	// stalls mid-frame longer than this (a slow-loris) has its session cut
	// with a transient error; 0 disables the defence. For persistent
	// sessions it also bounds how long an attached-but-silent client may
	// hold its connection (the parked state stays resumable).
	IdleTimeout time.Duration
	// MemBudget caps the bytes one ServeModelTCP session may make the
	// provider buffer, counting every received frame payload plus the
	// announced setup-payload total against it — size it at roughly twice
	// the model's setup volume. A peer declaring past the budget is
	// rejected before allocation; 0 = unlimited.
	MemBudget uint64
	// HandshakeTimeout bounds the hello and attach exchange on both TCP
	// entrypoints; 0 applies the 30s default, negative disables it.
	HandshakeTimeout time.Duration
	// SessionCache caps how many detached persistent sessions the provider
	// keeps resumable (weight-prepared state parked after a client's
	// transport fault). 0 keeps the default (64); negative disables
	// resumption caching entirely.
	SessionCache int
	// MetricsAddr, when non-empty, makes ServeModelTCP serve /metrics
	// (Prometheus text) and /debug/pprof on that address for its lifetime.
	// An address without a host (":9090") binds loopback only: the
	// endpoint exposes operational detail, so reaching it from another
	// machine requires an explicit interface address.
	MetricsAddr string
	// BankDepth enables the asynchronous preprocessing plane on persistent
	// sessions (Dial/OpenSession): background fillers pre-generate up to
	// BankDepth inference kits over a dedicated fill stream multiplexed
	// onto the session connection, so warm steady-state inferences run no
	// triple generation online. 0 disables the plane. Warm and cold
	// inferences reveal byte-identical logits.
	BankDepth int
}

// InferenceConfig controls every secure-inference entrypoint: local
// (SecureInfer), batched (SecureInferBatch) and networked (ServeModelTCP,
// Dial/OpenSession, SecureInferTCP). It composes the per-inference
// ComputeConfig with the session-level NetConfig; both sections' fields
// stay promoted (cfg.CarrierBits, cfg.Retries, …), so existing field
// access keeps working. The zero value is a working configuration.
type InferenceConfig struct {
	ComputeConfig
	NetConfig
}

// networkConfig is the single exhaustive translation from the facade
// configuration to engine.Options. Every ComputeConfig and NetConfig
// field is either mapped here or consumed by the facade itself
// (DialTimeout, ServeSessions, MetricsAddr, DemoGroup→Group); the mirror
// structs below force a compile error at this site whenever a field is
// added to either side, and TestNetworkConfigExhaustive asserts the
// value-level mapping.
func networkConfig(cfg InferenceConfig) engine.Options {
	nc := engine.Options{
		// ComputeConfig → engine.Options.
		CarrierBits:     cfg.CarrierBits,
		Seed:            cfg.Seed,
		LocalTrunc:      cfg.LocalTrunc,
		ABReLUBits:      cfg.ABReLUBits,
		RevealClassOnly: cfg.RevealClassOnly,
		Workers:         cfg.Workers,
		Trace:           cfg.Trace,
		FillWorkers:     cfg.FillWorkers,
		// NetConfig → engine.Options.
		Retries:               cfg.Retries,
		RetryBase:             cfg.RetryBase,
		SessionTimeout:        cfg.SessionTimeout,
		DrainGrace:            cfg.DrainGrace,
		MaxConcurrentSessions: cfg.MaxConcurrentSessions,
		IdleTimeout:           cfg.IdleTimeout,
		MemBudget:             cfg.MemBudget,
		HandshakeTimeout:      cfg.HandshakeTimeout,
		SessionCache:          cfg.SessionCache,
		BankDepth:             cfg.BankDepth,
	}
	if cfg.DemoGroup {
		nc.Group = ot.TestGroup()
	}
	return nc
}

// The mirror types re-declare the exact field sets of ComputeConfig,
// NetConfig and engine.Options. A struct conversion compiles only while
// the field names, types and order match, so adding (or renaming) a field
// on either side of the translation breaks this file until networkConfig
// is revisited — the compile-time field-count guard.
type computeConfigMirror struct {
	CarrierBits     uint
	Seed            uint64
	LocalTrunc      bool
	ABReLUBits      uint
	RevealClassOnly bool
	Workers         uint
	Trace           *telemetry.Tracer
	FillWorkers     uint
}

type netConfigMirror struct {
	DemoGroup             bool
	DialTimeout           time.Duration
	Retries               uint
	RetryBase             time.Duration
	SessionTimeout        time.Duration
	DrainGrace            time.Duration
	ServeSessions         uint
	MaxConcurrentSessions int
	IdleTimeout           time.Duration
	MemBudget             uint64
	HandshakeTimeout      time.Duration
	SessionCache          int
	MetricsAddr           string
	BankDepth             int
}

type engineOptionsMirror struct {
	CarrierBits           uint
	Seed                  uint64
	LocalTrunc            bool
	ABReLUBits            uint
	RevealClassOnly       bool
	Workers               uint
	Group                 ot.Group
	Trace                 *telemetry.Tracer
	Retries               uint
	RetryBase             time.Duration
	SessionTimeout        time.Duration
	DrainGrace            time.Duration
	MaxConcurrentSessions int
	IdleTimeout           time.Duration
	MemBudget             uint64
	HandshakeTimeout      time.Duration
	SessionCache          int
	BankDepth             int
	FillWorkers           uint
}

var (
	_ = computeConfigMirror(ComputeConfig{})
	_ = netConfigMirror(NetConfig{})
	_ = engineOptionsMirror(engine.Options{})
)
