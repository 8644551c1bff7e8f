package lint

import (
	"strings"

	"aq2pnn/internal/lint/analysis"
)

// suite lists every analyzer, in reporting order, with the import paths
// it patrols. A nil paths entry means every package of this module. The
// analyzers themselves are scope-agnostic; this table is the single place
// where "secret-handling package" and "wire-facing package" are defined,
// and an analyzer cannot join the suite without a scope.
var suite = []struct {
	a     *analysis.Analyzer
	paths []string
}{
	// Share arithmetic lives in the protocol operator packages. The ring
	// package itself is the reduction layer (every op carries the mask),
	// and tensor/fpga do plaintext-domain math, so they are out of scope.
	{RingMask, []string{
		"aq2pnn/internal/secure",
		"aq2pnn/internal/scm",
		"aq2pnn/internal/a2b",
		"aq2pnn/internal/triple",
		"aq2pnn/internal/share",
		"aq2pnn/internal/preproc",
		"aq2pnn/cmd/...",
		"aq2pnn/examples/...",
	}},
	// Everything that touches shares, masks, triples or pads. internal/prg
	// is deliberately absent: it is the one place allowed to consume
	// crypto/rand (to seed sessions).
	{PRGOnly, []string{
		"aq2pnn/internal/secure",
		"aq2pnn/internal/scm",
		"aq2pnn/internal/a2b",
		"aq2pnn/internal/triple",
		"aq2pnn/internal/share",
		"aq2pnn/internal/ot",
		"aq2pnn/internal/engine",
		"aq2pnn/internal/preproc",
		"aq2pnn/internal/transport",
		"aq2pnn/internal/ring",
		"aq2pnn/cmd/...",
		"aq2pnn/examples/...",
	}},
	// Dropped transport errors are a bug anywhere in the module.
	{SendCheck, nil},
	// Pool kernels appear wherever the shared pool is used.
	{LoopPar, nil},
	// Wire-facing decoders: everywhere a peer-declared length could size
	// an allocation before a bound check.
	{AllocCap, []string{
		"aq2pnn/internal/transport",
		"aq2pnn/internal/engine",
		"aq2pnn/internal/preproc",
		"aq2pnn/internal/ot",
		"aq2pnn/internal/scm",
		"aq2pnn/internal/a2b",
		"aq2pnn/cmd/...",
		"aq2pnn/examples/...",
	}},
	// The leakage boundary is a whole-module contract: a share value can be
	// laundered through any helper before it reaches a sink, so every
	// package is in scope and facts stitch the flows together.
	{SecretFlow, nil},
	// Transcript-determinism is owned by the engine's session layer — the
	// only place seeds are minted. internal/prg is the mechanism, not a
	// policy violation, and tests mint fixture seeds freely.
	{DetRand, []string{
		"aq2pnn/internal/engine",
		"aq2pnn/internal/preproc",
	}},
}

// Suite returns every analyzer, in reporting order.
func Suite() []*analysis.Analyzer {
	out := make([]*analysis.Analyzer, len(suite))
	for i, e := range suite {
		out[i] = e.a
	}
	return out
}

// AnalyzersFor returns the analyzers that patrol the package with the
// given canonical import path, honouring an optional explicit selection
// (analyzer name -> enabled) from the command line.
func AnalyzersFor(importPath string, selected map[string]bool) []*analysis.Analyzer {
	path := NormalizeImportPath(importPath)
	var out []*analysis.Analyzer
	for _, e := range suite {
		if selected != nil && !selected[e.a.Name] {
			continue
		}
		if e.paths == nil || containsPath(e.paths, path) {
			out = append(out, e.a)
		}
	}
	return out
}

// NormalizeImportPath maps the package-variant paths the go command
// produces back onto the source package path: the test-augmented variant
// "p [p.test]" and the external test package "p_test" both patrol as "p".
func NormalizeImportPath(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i]
	}
	importPath = strings.TrimSuffix(importPath, "_test")
	return importPath
}

// containsPath matches p against the scope entries: exact import paths,
// or whole subtrees spelled with a "/..." suffix ("aq2pnn/cmd/..." covers
// aq2pnn/cmd/party and every package below aq2pnn/cmd).
func containsPath(paths []string, p string) bool {
	for _, s := range paths {
		if s == p {
			return true
		}
		if root, ok := strings.CutSuffix(s, "/..."); ok {
			if p == root || strings.HasPrefix(p, root+"/") {
				return true
			}
		}
	}
	return false
}
