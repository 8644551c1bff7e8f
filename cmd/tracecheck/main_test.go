package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// span is one complete event; parent 0 marks a root, and sent < 0 leaves
// the comm counters off.
func span(name string, id, parent int, sent float64) map[string]any {
	args := map[string]any{"span.id": id}
	if parent != 0 {
		args["span.parent"] = parent
	}
	if sent >= 0 {
		for _, k := range commKeys {
			args[k] = 0
		}
		args["comm.bytes_sent"] = sent
	}
	return map[string]any{"name": name, "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1, "args": args}
}

func TestCheck(t *testing.T) {
	// A warm session: open with its share exchange, one infer, one fill.
	valid := []map[string]any{
		{"name": "thread_name", "ph": "M", "pid": 1, "tid": 1},
		span("user.session.open", 1, 0, 100), span("exchange.shares", 2, 1, 100),
		span("user.session.infer", 3, 0, 50), span("secure.abrelu", 4, 3, 50),
		span("user.preproc.fill", 5, 0, 30), span("preproc.ack", 6, 5, 10), span("triple.gilboa", 7, 5, 20),
	}
	partial := span("reveal", 8, 3, -1)
	partial["args"].(map[string]any)["comm.rounds"] = 1
	for _, tc := range []struct {
		name  string
		extra map[string]any
		want  string // error substring; empty: the trace passes
	}{
		{"valid warm session trace", nil, ""},
		{"partial comm counter set", partial, "partial comm counter set"},
		{"children bytes differ from the root", span("reveal", 8, 3, 5), "children bytes"},
		{"share exchange under a non-open root", span("exchange.shares", 8, 5, 0), "weight-share exchange"},
		{"linear prepare under an infer root", span("secure.linear.prepare", 8, 3, 0), "setup span"},
		{"preproc span outside a fill root", span("preproc.demand", 8, 3, 0), "fill-subprotocol span"},
		{"generation under a warm infer root", span("triple.gilboa", 8, 3, 0), "triple generation span"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := valid
			if tc.extra != nil {
				events = append(events[:len(events):len(events)], tc.extra)
			}
			b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			err = check(path)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid trace rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
