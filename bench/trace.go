package main

import (
	"sort"
	"strings"
	"time"

	"aq2pnn/internal/telemetry"
)

// Folding the traced run's spans into layers. A span's self time is its
// duration minus the part of that interval its children cover, so the
// self times under one root sum to the root's duration: the parts sum to
// the whole. Only the user party's roots are folded — in these
// single-process workloads the provider's spans mirror them, and a user
// sees the user side. Self time includes waiting for the peer.

// Layer buckets a span name folds into. unattributed collects every name
// the table below does not know, so a new span inside the program shows up
// in engine.unattributed_pct instead of vanishing.
const (
	layerGlue       = "engine.glue"
	layerOpen       = "engine.open"
	layerShares     = "engine.exchange_shares"
	layerLinear     = "secure.linear"
	layerNonlinear  = "secure.nonlinear"
	layerSCM        = "scm"
	layerOTTokens   = "ot.tokens"
	layerOTExt      = "ot.ext"
	layerGilboa     = "triple.gilboa"
	layerFill       = "preproc.fill"
	layerAck        = "preproc.ack"
	layerUnassigned = "unattributed"
)

var spanLayers = map[string]string{
	"input.share":           layerGlue,
	"reveal":                layerGlue,
	"handshake":             layerOpen,
	"exchange.shares":       layerShares,
	"secure.linear.mul":     layerLinear,
	"secure.linear.prepare": layerLinear,
	"secure.matmul":         layerLinear,
	"secure.abrelu":         layerNonlinear,
	"secure.trunc":          layerNonlinear,
	"secure.mux":            layerNonlinear,
	"secure.b2a":            layerNonlinear,
	"secure.zero_extend":    layerNonlinear,
	"secure.argmax":         layerNonlinear,
	"scm.msb":               layerSCM,
	"scm.cmp":               layerSCM,
	"ot.send.tokens":        layerOTTokens,
	"ot.recv.tokens":        layerOTTokens,
	"ot.send":               layerOTExt,
	"ot.recv":               layerOTExt,
	"triple.gilboa":         layerGilboa,
	"preproc.ack":           layerAck,
	"preproc.demand":        layerAck,
}

// rootKind classifies a user-party root span; "" means the root is not
// folded (provider roots, gateway roots, the benchmark's own spans).
func rootKind(name string) string {
	switch {
	case name == "user.session.infer", strings.HasPrefix(name, "p0.image"):
		return "infer"
	case name == "user.preproc.fill":
		return "fill"
	case name == "user.session.open", name == "p0.setup":
		return "open"
	}
	return ""
}

func layerOf(name, kind string, isRoot bool) string {
	if isRoot {
		switch kind {
		case "infer":
			return layerGlue
		case "fill":
			return layerFill
		default:
			return layerOpen
		}
	}
	if strings.HasPrefix(name, "layer.") {
		return layerGlue
	}
	if l, ok := spanLayers[name]; ok {
		return l
	}
	return layerUnassigned
}

// fold is the traced run's ledger: per root kind, the summed self time of
// every layer, the root count and total root time, plus the exact counts
// the spans carry.
type fold struct {
	selfMs    map[string]map[string]float64 // kind → layer → ms
	roots     map[string]int
	rootMs    map[string]float64
	msgs      uint64 // messages sent+received under infer roots
	fillBytes uint64 // fill-stream bytes under fill roots
}

func foldSpans(spans []telemetry.SpanRecord) *fold {
	f := &fold{
		selfMs: map[string]map[string]float64{},
		roots:  map[string]int{},
		rootMs: map[string]float64{},
	}
	children := map[uint64][]telemetry.SpanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var walk func(s telemetry.SpanRecord, kind string, isRoot bool)
	walk = func(s telemetry.SpanRecord, kind string, isRoot bool) {
		kids := children[s.ID]
		self := s.Dur() - covered(s, kids)
		if f.selfMs[kind] == nil {
			f.selfMs[kind] = map[string]float64{}
		}
		f.selfMs[kind][layerOf(s.Name, kind, isRoot)] += ms(self)
		for _, k := range kids {
			walk(k, kind, false)
		}
	}
	for _, s := range spans {
		kind := rootKind(s.Name)
		if s.Parent != 0 || kind == "" {
			continue
		}
		f.roots[kind]++
		f.rootMs[kind] += ms(s.Dur())
		switch kind {
		case "infer":
			f.msgs += s.Comm.MsgsSent + s.Comm.MsgsRecv
		case "fill":
			f.fillBytes += s.Comm.TotalBytes()
		}
		walk(s, kind, true)
	}
	return f
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent telemetry.SpanRecord, kids []telemetry.SpanRecord) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// perInference is a layer's self time per inference-equivalent: its share
// of one online inference plus its share of the kit that inference
// consumed (fill roots, one per kit).
func (f *fold) perInference(layer string) float64 {
	var v float64
	if n := f.roots["infer"]; n > 0 {
		v += f.selfMs["infer"][layer] / float64(n)
	}
	if n := f.roots["fill"]; n > 0 {
		v += f.selfMs["fill"][layer] / float64(n)
	}
	return v
}

// perOpen is a layer's self time per session open.
func (f *fold) perOpen(layer string) float64 {
	if n := f.roots["open"]; n > 0 {
		return f.selfMs["open"][layer] / float64(n)
	}
	return 0
}

// unattributedPct is how far the attributed self times fall short of the
// roots they were folded from, as a share of the roots.
func (f *fold) unattributedPct() float64 {
	var root, attributed float64
	for kind, total := range f.rootMs {
		root += total
		for layer, v := range f.selfMs[kind] {
			if layer != layerUnassigned {
				attributed += v
			}
		}
	}
	if root == 0 {
		return 0
	}
	d := root - attributed
	if d < 0 {
		d = -d
	}
	return 100 * d / root
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
