package engine

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
)

// DefaultSessionCache is how many detached persistent sessions a Registry
// keeps resumable when Options.SessionCache is zero.
const DefaultSessionCache = 64

// sessionTTL bounds how long a detached session stays resumable: past it
// the parked state is garbage, the re-attaching client falls back to a
// fresh setup, and the provider's memory is reclaimed.
const sessionTTL = 15 * time.Minute

// Registry is the provider-side serving state behind ServeRegistryTCP: the
// models offered (hot add/remove, keyed by architecture fingerprint — the
// same fingerprint the hello announces), a weight-share cache so repeated
// sessions of one model never re-split or re-encode its shares, and the
// parked persistent sessions waiting for a token re-attach.
//
// All methods are safe for concurrent use; a Registry may be shared by
// any number of serve loops and mutated while they run.
type Registry struct {
	mu     sync.Mutex
	models map[uint64]*nn.Model
	shares map[shareKey]*modelShares
	parked map[SessionToken]*parkedSession
	order  []SessionToken // LRU over parked, oldest first
	cap    int            // parked capacity; <0 disables resumption caching
	tokens uint64
	rng    *prg.PRG
	now    func() time.Time
}

// shareKey identifies one cached weight split: the shares depend on the
// model, the split seed and the carrier ring.
type shareKey struct {
	fp   uint64
	seed uint64
	bits uint
}

// modelShares is one cached split: the provider's own share plus the
// client share already flat-encoded into the chunked-setup payload, so a
// fresh session costs one sendSetupBytes and nothing else.
type modelShares struct {
	ws1     *WeightShares
	payload []byte
}

type parkedSession struct {
	st      *sessionState
	expires time.Time
}

// NewRegistry returns an empty registry with the default session-cache
// capacity. Serve entrypoints overwrite the capacity from
// Options.SessionCache.
func NewRegistry() *Registry {
	return &Registry{
		models: map[uint64]*nn.Model{},
		shares: map[shareKey]*modelShares{},
		parked: map[SessionToken]*parkedSession{},
		cap:    DefaultSessionCache,
		//lint:allow detrand token-uniqueness rng inside one provider process; tokens are public handshake metadata, not transcript randomness
		rng: prg.NewSeeded(0x7E6157A92B11E5),
		now: time.Now,
	}
}

// Add registers (or replaces) a model, keyed by its architecture
// fingerprint. The model must carry real weights: sessions secret-share
// them at open.
func (g *Registry) Add(m *nn.Model) error {
	if m == nil {
		return fmt.Errorf("engine: registry: nil model")
	}
	for i, node := range m.Nodes {
		if sk, ok := node.Op.(interface{ Skeleton() bool }); ok && sk.Skeleton() {
			return fmt.Errorf("engine: registry: model %q node %d is a skeleton", m.Name, i)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	fp := m.Fingerprint()
	g.models[fp] = m
	// A replaced model invalidates its cached splits (the weights may have
	// changed under the same architecture fingerprint).
	for k := range g.shares {
		if k.fp == fp {
			delete(g.shares, k)
		}
	}
	return nil
}

// Remove unregisters a model and drops its cached weight splits and every
// parked session that serves it. In-flight attached sessions keep their
// own references and finish undisturbed.
func (g *Registry) Remove(m *nn.Model) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fp := m.Fingerprint()
	delete(g.models, fp)
	for k := range g.shares {
		if k.fp == fp {
			delete(g.shares, k)
		}
	}
	kept := g.order[:0]
	for _, tok := range g.order {
		if e := g.parked[tok]; e != nil && e.st.model.Fingerprint() == fp {
			delete(g.parked, tok)
			continue
		}
		kept = append(kept, tok)
	}
	g.order = kept
}

// Lookup resolves a hello's model fingerprint, or nil.
func (g *Registry) Lookup(fp uint64) *nn.Model {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.models[fp]
}

// Len reports how many models are registered.
func (g *Registry) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.models)
}

// setCap resolves Options.SessionCache onto the registry (0 keeps the
// default, negative disables parking).
func (g *Registry) setCap(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n != 0 {
		g.cap = n
	}
}

// sharesFor returns the cached weight split for (model, seed, ring),
// computing and caching it on first use.
func (g *Registry) sharesFor(m *nn.Model, r ring.Ring, seed uint64) (*modelShares, error) {
	key := shareKey{fp: m.Fingerprint(), seed: seed, bits: r.Bits}
	g.mu.Lock()
	if s := g.shares[key]; s != nil {
		g.mu.Unlock()
		telemetry.Count("aq2pnn_weight_cache_hits_total", 1)
		return s, nil
	}
	g.mu.Unlock()
	// Split outside the lock: a large model's split must not stall
	// unrelated sessions. A duplicate computation under contention is
	// wasted work, not an error — last writer wins with an equal value.
	gsplit := prg.NewSeeded(saltedSeed(seed, 0x0DE17272))
	ws0, ws1, err := SplitModel(gsplit, m, r)
	if err != nil {
		return nil, err
	}
	payload, err := encodeShares(ws0, r.Bytes())
	if err != nil {
		return nil, err
	}
	s := &modelShares{ws1: ws1, payload: payload}
	g.mu.Lock()
	g.shares[key] = s
	g.mu.Unlock()
	telemetry.Count("aq2pnn_weight_cache_misses_total", 1)
	return s, nil
}

// nextToken mints a unique session token: a counter (uniqueness) whipped
// through the registry PRG stream (so tokens from distinct registries or
// restarts differ and a stale client re-attach simply misses).
func (g *Registry) nextToken() SessionToken {
	g.mu.Lock()
	g.tokens++
	ctr := g.tokens
	salt := g.rng.Uint64()
	g.mu.Unlock()
	var t SessionToken
	binary.LittleEndian.PutUint64(t[:8], mix64(ctr))
	binary.LittleEndian.PutUint64(t[8:], mix64(ctr^salt))
	return t
}

// park stores a detached session's state for re-attachment, evicting the
// oldest entries past the capacity and anything expired. A disabled cache
// (negative capacity) drops the state immediately.
func (g *Registry) park(token SessionToken, st *sessionState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cap < 0 {
		return
	}
	g.pruneLocked()
	if _, ok := g.parked[token]; !ok {
		g.order = append(g.order, token)
	}
	g.parked[token] = &parkedSession{st: st, expires: g.now().Add(sessionTTL)}
	for len(g.parked) > g.cap && len(g.order) > 0 {
		oldest := g.order[0]
		g.order = g.order[1:]
		if _, ok := g.parked[oldest]; ok {
			delete(g.parked, oldest)
			telemetry.Count("aq2pnn_sessions_evicted_total", 1)
		}
	}
	telemetry.Count("aq2pnn_sessions_parked_total", 1)
}

// take claims a parked session for re-attachment, removing it from the
// cache (a token re-attaches at most one connection at a time; the state
// is re-parked on the next fault).
func (g *Registry) take(token SessionToken) (*sessionState, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pruneLocked()
	e, ok := g.parked[token]
	if !ok {
		return nil, false
	}
	delete(g.parked, token)
	for i, tok := range g.order {
		if tok == token {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	telemetry.Count("aq2pnn_sessions_resumed_total", 1)
	return e.st, true
}

// pruneLocked drops expired parked sessions. Caller holds g.mu.
func (g *Registry) pruneLocked() {
	if len(g.parked) == 0 {
		return
	}
	now := g.now()
	kept := g.order[:0]
	for _, tok := range g.order {
		if e := g.parked[tok]; e != nil && now.After(e.expires) {
			delete(g.parked, tok)
			telemetry.Count("aq2pnn_sessions_expired_total", 1)
			continue
		}
		kept = append(kept, tok)
	}
	g.order = kept
}
