// Command tracecheck validates a Chrome trace-event JSON file emitted by
// the telemetry subsystem (quickstart -trace, party -trace). CI runs it
// against the quickstart artifact to pin the export schema: a schema
// drift that chrome://tracing would silently tolerate fails here.
//
//	tracecheck trace.json
//
// Checks, in order: well-formed JSON with a non-empty traceEvents array;
// every event carries a name, a known phase ("X" complete or "M"
// metadata) and non-negative microsecond timestamps; spans that carry
// communication args carry the full counter set; the per-layer byte
// totals of each phase root sum exactly to that root's own counters —
// the subsystem's attribution contract, re-verified on the exported
// artifact rather than in-process; and on session traces (sessionbench
// -trace, party -trace), the session protocol's structural contract: no
// setup span under a steady-state "*.session.infer" root, weight-share
// exchanges only under open/setup roots, fill-subprotocol spans only
// under "*.preproc.fill" roots, and — when the trace shows an active
// preprocessing plane — no triple generation under any infer root: a
// warm steady-state inference must consume precomputed material only.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents     []event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

var commKeys = []string{"comm.bytes_sent", "comm.bytes_recv", "comm.msgs_sent", "comm.msgs_recv", "comm.rounds"}

func commArg(e event, key string) (float64, bool) {
	v, ok := e.Args[key]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	return f, ok
}

func check(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("%s: no traceEvents", path)
	}
	if tf.DisplayTimeUnit != "ms" {
		return fmt.Errorf("%s: displayTimeUnit %q, want \"ms\"", path, tf.DisplayTimeUnit)
	}
	var spans, lanes int
	for i, e := range tf.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("event %d: empty name", i)
		}
		if e.Pid == nil || e.Tid == nil {
			return fmt.Errorf("event %d (%s): missing pid/tid", i, e.Name)
		}
		switch e.Ph {
		case "M":
			lanes++
		case "X":
			spans++
			if e.Ts == nil || *e.Ts < 0 || e.Dur == nil || *e.Dur < 0 {
				return fmt.Errorf("event %d (%s): complete event needs ts and dur >= 0", i, e.Name)
			}
			if _, ok := commArg(e, "span.id"); !ok {
				return fmt.Errorf("event %d (%s): missing span.id arg", i, e.Name)
			}
			// Comm counters are all-or-nothing per span.
			var have int
			for _, k := range commKeys {
				if _, ok := commArg(e, k); ok {
					have++
				}
			}
			if have != 0 && have != len(commKeys) {
				return fmt.Errorf("event %d (%s): partial comm counter set (%d of %d)", i, e.Name, have, len(commKeys))
			}
		default:
			return fmt.Errorf("event %d (%s): unknown phase %q", i, e.Name, e.Ph)
		}
	}
	if spans == 0 || lanes == 0 {
		return fmt.Errorf("%s: want at least one complete event and one lane-name event, got %d/%d", path, spans, lanes)
	}

	// Attribution: for every root span that carries communication counters,
	// the byte totals of its direct children must sum exactly to its own —
	// the subsystem's partition contract. The span tree is rebuilt from the
	// span.id / span.parent args the exporter emits.
	byParent := map[float64][]event{}
	var roots []event
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if p, ok := commArg(e, "span.parent"); ok {
			byParent[p] = append(byParent[p], e)
		} else {
			roots = append(roots, e)
		}
	}
	verified := 0
	for _, root := range roots {
		sent, ok := commArg(root, "comm.bytes_sent")
		if !ok {
			continue // connection-less root (e.g. a precompute phase)
		}
		recv, _ := commArg(root, "comm.bytes_recv")
		id, _ := commArg(root, "span.id")
		children := byParent[id]
		if len(children) == 0 {
			continue // leaf root
		}
		var childSent, childRecv float64
		for _, c := range children {
			s, _ := commArg(c, "comm.bytes_sent")
			r, _ := commArg(c, "comm.bytes_recv")
			childSent += s
			childRecv += r
		}
		if childSent != sent || childRecv != recv {
			return fmt.Errorf("root %q: children bytes %.0f/%.0f != root %.0f/%.0f",
				root.Name, childSent, childRecv, sent, recv)
		}
		verified++
	}
	if len(roots) > 0 && verified == 0 {
		return fmt.Errorf("%s: no root span carried communication counters to verify", path)
	}

	// Session mode: the session protocol's structural contract, re-verified
	// on the artifact. Setup work — weight-share exchange, linear-layer
	// preparation — is paid once under an open/setup root and must never
	// appear inside a steady-state "*.session.infer" root; weight shares
	// must only ever cross the wire under an open/setup root. Traces
	// without session spans (the local quickstart) have no infer roots to
	// violate the first rule and still get the second.
	setupSpans := map[string]bool{
		"exchange.shares":       true,
		"secure.linear.prepare": true,
	}
	openRoots := map[string]bool{
		"user.session.open":     true,
		"provider.session.open": true,
		"p0.setup":              true,
		"p1.setup":              true,
	}
	byID := map[float64]event{}
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		id, _ := commArg(e, "span.id")
		byID[id] = e
	}
	rootOf := func(e event) event {
		// Bounded walk: a malformed parent cycle terminates at the map size.
		for range byID {
			p, ok := commArg(e, "span.parent")
			if !ok {
				return e
			}
			pe, ok := byID[p]
			if !ok {
				return e
			}
			e = pe
		}
		return e
	}
	// The preprocessing plane's trace contract rides the same walk. A
	// "*.preproc.fill" root is the plane's unit of work; its presence means
	// the session ran warm, and a warm steady-state inference must consume
	// precomputed material only — any "triple.gilboa" generation span under
	// an infer root is preprocessing work leaking back onto the online path.
	fillRoots := 0
	for _, root := range roots {
		if strings.HasSuffix(root.Name, ".preproc.fill") {
			fillRoots++
		}
	}
	sessionSpans := 0
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		root := rootOf(e)
		if strings.Contains(root.Name, ".session.") {
			sessionSpans++
		}
		if strings.HasSuffix(root.Name, ".session.infer") && setupSpans[e.Name] {
			return fmt.Errorf("setup span %q under steady-state root %q: session inferences must be online-only", e.Name, root.Name)
		}
		if e.Name == "exchange.shares" && !openRoots[root.Name] {
			return fmt.Errorf("weight-share exchange under root %q, want one of the open/setup roots", root.Name)
		}
		if strings.HasPrefix(e.Name, "preproc.") && !strings.HasSuffix(root.Name, ".preproc.fill") {
			return fmt.Errorf("fill-subprotocol span %q under root %q, want a *.preproc.fill root", e.Name, root.Name)
		}
		if fillRoots > 0 && e.Name == "triple.gilboa" && strings.HasSuffix(root.Name, ".session.infer") {
			return fmt.Errorf("triple generation span under steady-state root %q: a warm session must consume banked material, not generate inline", root.Name)
		}
	}
	mode := "local"
	if sessionSpans > 0 {
		mode = fmt.Sprintf("session (%d session spans)", sessionSpans)
		if fillRoots > 0 {
			mode += fmt.Sprintf(", warm (%d fill roots)", fillRoots)
		}
	}
	fmt.Printf("%s: ok (%d spans, %d lanes, attribution verified, %s)\n", path, spans, lanes, mode)
	return nil
}

func main() {
	if len(os.Args) != 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.json>")
		os.Exit(2)
	}
	if err := check(os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}
