package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// assertExactAttribution checks the telemetry contract on a finished
// trace: for the named root span, the communication deltas of its direct
// children partition the root's delta exactly, and (when session is
// non-nil) the root's delta equals the session's measured stats.
func assertExactAttribution(t *testing.T, tr *telemetry.Tracer, rootName string, session *transport.Stats) {
	t.Helper()
	spans := tr.Spans()
	var root *telemetry.SpanRecord
	for i := range spans {
		if spans[i].Parent == 0 && spans[i].Name == rootName {
			if root != nil {
				t.Fatalf("duplicate root span %q", rootName)
			}
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatalf("root span %q not found", rootName)
	}
	if session != nil && root.Comm != *session {
		t.Errorf("%s comm %+v != session stats %+v", rootName, root.Comm, *session)
	}
	var sum transport.Stats
	var children int
	for _, r := range spans {
		if r.Parent == root.ID {
			children++
			if !r.HasConn {
				t.Errorf("child %q of %s has no connection delta", r.Name, rootName)
				continue
			}
			sum.Add(r.Comm)
		}
	}
	if children == 0 {
		t.Fatalf("root %q has no children", rootName)
	}
	if sum != root.Comm {
		t.Errorf("%s: children sum %+v != root comm %+v", rootName, sum, root.Comm)
	}
}

// TestTraceAttributionExact is the subsystem's acceptance bar on the fast
// model: the per-layer (plus reveal) spans of each party partition the
// online traffic byte-for-byte, and the setup spans match the setup stats.
func TestTraceAttributionExact(t *testing.T) {
	m := tinyModel(nn.PoolMax)
	tr := telemetry.New()
	res, err := RunLocal(m, input(64), Options{CarrierBits: 16, Seed: 11, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	assertExactAttribution(t, tr, "p0.image0", &res.Online)
	// Setup: the whole phase is one Prepare call per party, so the root's
	// delta IS the setup stats (children are the per-layer prepare spans).
	spans := tr.Spans()
	var setupComm transport.Stats
	var layerSpans, prepareSpans int
	for _, r := range spans {
		if r.Parent == 0 && r.Name == "p0.setup" {
			setupComm = r.Comm
		}
		if strings.HasPrefix(r.Name, "layer.") {
			layerSpans++
		}
		if r.Name == "secure.linear.prepare" {
			prepareSpans++
		}
	}
	if setupComm != res.Setup {
		t.Errorf("p0.setup comm %+v != setup stats %+v", setupComm, res.Setup)
	}
	// Both parties walk 5 nodes; 2 linear layers prepared per party.
	if layerSpans != 2*len(m.Nodes) || prepareSpans != 4 {
		t.Errorf("got %d layer spans (want %d) and %d prepare spans (want 4)",
			layerSpans, 2*len(m.Nodes), prepareSpans)
	}
	// Protocol ops must have nested under the layers, not floated to roots.
	for _, r := range spans {
		if r.Parent == 0 && !strings.HasPrefix(r.Name, "p0.") && !strings.HasPrefix(r.Name, "p1.") {
			t.Errorf("unexpected root span %q", r.Name)
		}
	}
}

// TestTraceAttributionLeNet5 is the paper-scale acceptance criterion: a
// LeNet5 local inference's per-layer byte totals sum exactly to the
// session's transport.Stats totals.
func TestTraceAttributionLeNet5(t *testing.T) {
	if testing.Short() {
		t.Skip("full LeNet5 secure inference")
	}
	m := nn.LeNet5(nn.ZooConfig{Seed: 5})
	x := make([]int64, 28*28)
	for i := range x {
		x[i] = int64(i%23) - 11
	}
	tr := telemetry.New()
	res, err := RunLocal(m, x, Options{CarrierBits: 32, Seed: 6, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	assertExactAttribution(t, tr, "p0.image0", &res.Online)
	// Party 1's endpoint sees the mirror image of party 0's traffic (its
	// own round count — the two differ because rounds are counted at the
	// receiver — so only the byte/message mirror is asserted).
	assertExactAttribution(t, tr, "p1.image0", nil)
	for _, r := range tr.Spans() {
		if r.Parent != 0 || r.Name != "p1.image0" {
			continue
		}
		if r.Comm.BytesSent != res.Online.BytesRecv || r.Comm.BytesRecv != res.Online.BytesSent ||
			r.Comm.MsgsSent != res.Online.MsgsRecv || r.Comm.MsgsRecv != res.Online.MsgsSent {
			t.Errorf("p1.image0 comm %+v is not the mirror of online stats %+v", r.Comm, res.Online)
		}
	}
}

// TestTraceBatchLanes checks the batch executor's tracing: one lane pair
// per image, with the per-image root deltas summing to the online total.
func TestTraceBatchLanes(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	xs := [][]int64{input(64), input(64), input(64)}
	tr := telemetry.New()
	res, err := RunLocalBatch(m, xs, Options{CarrierBits: 16, Seed: 3, Workers: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	var sum transport.Stats
	lanes := map[uint64]bool{}
	for _, r := range tr.Spans() {
		if r.Parent == 0 && strings.HasPrefix(r.Name, "p0.image") {
			sum.Add(r.Comm)
			lanes[r.Lane] = true
		}
	}
	if len(lanes) != len(xs) {
		t.Errorf("got %d image lanes, want %d", len(lanes), len(xs))
	}
	if sum != res.Online {
		t.Errorf("image roots sum %+v != online total %+v", sum, res.Online)
	}
	// Within each image lane the layer + reveal spans partition that
	// image's root delta (per-image session stats aren't exposed, so only
	// the partition is checked here).
	for i := range xs {
		assertExactAttribution(t, tr, fmt.Sprintf("p0.image%d", i), nil)
	}
}

// TestTelemetryDisabledBitIdentical asserts the zero-cost contract:
// enabling tracing (or leaving it off) never changes the logits, at any
// Workers setting.
func TestTelemetryDisabledBitIdentical(t *testing.T) {
	m := tinyModel(nn.PoolMax)
	x := input(64)
	var base []int64
	for _, workers := range []uint{1, 2, 4} {
		for _, traced := range []bool{false, true} {
			cfg := Options{CarrierBits: 16, Seed: 99, Workers: workers}
			if traced {
				cfg.Trace = telemetry.New()
			}
			res, err := RunLocal(m, x, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = res.Logits
				continue
			}
			if !reflect.DeepEqual(res.Logits, base) {
				t.Errorf("workers=%d traced=%v: logits %v != baseline %v", workers, traced, res.Logits, base)
			}
		}
	}
}

// TestTripleCountersAgreeAcrossPaths: the dealer-backed local path
// (RunLocal), a networked session of one and a warm inference of a banked
// session consume the same triples, one per linear node per party, so all
// three advance the consumed-triple and triple-multiplication counters by
// the same non-zero amounts. Kits filled ahead of demand count nothing
// until an inference consumes them.
func TestTripleCountersAgreeAcrossPaths(t *testing.T) {
	telemetry.Enable()
	m, err := nn.ByName("micro", nn.ZooConfig{Bits: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := input(m.InputShape().Numel())
	cfg := Options{Seed: 1, Group: ot.TestGroup()}
	counts := func(run func()) [2]uint64 {
		t.Helper()
		c0, m0 := counterValue("aq2pnn_triples_consumed_total"), counterValue("aq2pnn_triple_muls_total")
		run()
		return [2]uint64{counterValue("aq2pnn_triples_consumed_total") - c0, counterValue("aq2pnn_triple_muls_total") - m0}
	}
	local := counts(func() {
		if _, err := RunLocal(m, x, cfg); err != nil {
			t.Fatal(err)
		}
	})
	session := counts(func() {
		h := newSessionHarness(t, m, cfg)
		s, err := NewClient(h.dial, cfg).OpenSession(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		h.wg.Wait()
	})
	if session[0] == 0 || session[1] == 0 {
		t.Fatalf("a session of one counted %d triples and %d multiplications", session[0], session[1])
	}
	if local != session {
		t.Errorf("RunLocal counted %d triples and %d multiplications, a session of one %d and %d",
			local[0], local[1], session[0], session[1])
	}

	bcfg := cfg
	bcfg.BankDepth = 2
	h := newSessionHarness(t, m, bcfg)
	var s *Session
	open := counts(func() {
		if s, err = NewClient(h.dial, bcfg).OpenSession(context.Background(), m); err != nil {
			t.Fatal(err)
		}
		if !s.WarmupPreproc(2) {
			t.Fatal("the bank never filled")
		}
	})
	warm := counts(func() {
		if _, err := s.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	h.wg.Wait()
	if open != ([2]uint64{}) {
		t.Errorf("a banked open and its fill counted %d triples and %d multiplications, want none", open[0], open[1])
	}
	if warm != local {
		t.Errorf("RunLocal counted %d triples and %d multiplications, a warm inference %d and %d",
			local[0], local[1], warm[0], warm[1])
	}
}
