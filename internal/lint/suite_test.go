package lint_test

import (
	"testing"

	"aq2pnn/internal/lint"
)

func TestNormalizeImportPath(t *testing.T) {
	cases := []struct{ in, want string }{
		{"aq2pnn/internal/secure", "aq2pnn/internal/secure"},
		{"aq2pnn/internal/secure [aq2pnn/internal/secure.test]", "aq2pnn/internal/secure"},
		{"aq2pnn/internal/secure_test", "aq2pnn/internal/secure"},
		{"aq2pnn/internal/secure_test [aq2pnn/internal/secure.test]", "aq2pnn/internal/secure"},
		{"aq2pnn", "aq2pnn"},
	}
	for _, c := range cases {
		if got := lint.NormalizeImportPath(c.in); got != c.want {
			t.Errorf("NormalizeImportPath(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestAnalyzersForScoping(t *testing.T) {
	names := func(path string) map[string]bool {
		out := make(map[string]bool)
		for _, a := range lint.AnalyzersFor(path, nil) {
			out[a.Name] = true
		}
		return out
	}

	secure := names("aq2pnn/internal/secure")
	for _, want := range []string{"ringmask", "prgonly", "sendcheck", "looppar", "secretflow"} {
		if !secure[want] {
			t.Errorf("internal/secure should be patrolled by %s", want)
		}
	}
	for _, not := range []string{"alloccap", "detrand"} {
		if secure[not] {
			t.Errorf("internal/secure should not be patrolled by %s", not)
		}
	}

	// internal/prg is the one legitimate crypto/rand consumer.
	if names("aq2pnn/internal/prg")["prgonly"] {
		t.Errorf("internal/prg must be excluded from prgonly")
	}
	// internal/ring is the reduction layer; its arithmetic IS the masking.
	if names("aq2pnn/internal/ring")["ringmask"] {
		t.Errorf("internal/ring must be excluded from ringmask")
	}
	// The unscoped analyzers cover everything, including cmd packages.
	cmd := names("aq2pnn/cmd/aq2pnnlint")
	if !cmd["sendcheck"] || !cmd["looppar"] || !cmd["secretflow"] {
		t.Errorf("sendcheck/looppar/secretflow should patrol every package, got %v", cmd)
	}
	// The share-handling invariants follow shares into the binaries and
	// examples via the /... subtree entries.
	for _, path := range []string{"aq2pnn/cmd/party", "aq2pnn/examples/quickstart"} {
		got := names(path)
		for _, want := range []string{"ringmask", "prgonly", "alloccap", "secretflow"} {
			if !got[want] {
				t.Errorf("%s should be patrolled by %s", path, want)
			}
		}
	}
	// Transcript determinism is an engine-session concern only.
	if !names("aq2pnn/internal/engine")["detrand"] {
		t.Errorf("internal/engine should be patrolled by detrand")
	}
	if names("aq2pnn/internal/prg")["detrand"] || names("aq2pnn/cmd/party")["detrand"] {
		t.Errorf("detrand must stay scoped to the engine's session layer")
	}

	// Test-variant paths patrol as their source package.
	variant := names("aq2pnn/internal/secure [aq2pnn/internal/secure.test]")
	if !variant["ringmask"] {
		t.Errorf("test-augmented variant should inherit internal/secure's scope")
	}
}

func TestAnalyzersForSelection(t *testing.T) {
	got := lint.AnalyzersFor("aq2pnn/internal/secure", map[string]bool{"ringmask": true})
	if len(got) != 1 || got[0].Name != "ringmask" {
		t.Fatalf("explicit selection should filter to ringmask, got %v", got)
	}
}

func TestSuiteComplete(t *testing.T) {
	want := []string{"ringmask", "prgonly", "sendcheck", "looppar", "alloccap", "secretflow", "detrand"}
	suite := lint.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
}
