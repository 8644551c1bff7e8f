// Command aq2pnnlint enforces the static invariants of the 2PC engine:
// ring reduction of share arithmetic (ringmask), PRG-only randomness in
// secret-handling packages (prgonly), transport error discipline
// (sendcheck), race-free parallel kernels (looppar), bounded
// wire-declared allocations (alloccap), interprocedural secret-leakage
// taint tracking via cross-package facts (secretflow) and the salted
// session-seed derivation contract (detrand). See the "Static
// invariants" section of DESIGN.md.
//
// Usage:
//
//	aq2pnnlint ./...             # standalone: re-execs go vet -vettool=self
//	go vet -vettool=$(which aq2pnnlint) ./...
//	aq2pnnlint help              # describe every analyzer
//
// Findings are suppressed per line with `//lint:allow <rule> <reason>`.
// A deliberate reveal of secret-derived data is annotated with
// `//lint:declassify <reason>` on (or above) the revealing line. Both
// directives are audited: one that suppresses or launders nothing is
// itself a finding. SFDEBUG=1 in the environment prints secretflow's
// fact-recording leaves for triaging cascaded findings.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"aq2pnn/internal/lint"
	"aq2pnn/internal/lint/vetdriver"
)

func main() {
	args := os.Args[1:]
	if len(args) == 1 && (args[0] == "help" || args[0] == "-h" || args[0] == "-help" || args[0] == "--help") {
		printHelp()
		return
	}
	if vetInvocation(args) {
		os.Exit(vetdriver.Main(args, os.Stdout, os.Stderr))
	}
	os.Exit(standalone(args))
}

// vetInvocation reports whether the go command is driving us (protocol
// queries, or a vet.cfg unit to analyze).
func vetInvocation(args []string) bool {
	for _, a := range args {
		if a == "-flags" || a == "--flags" || strings.HasPrefix(a, "-V") || strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}

// standalone runs the suite over package patterns by re-execing the go
// command with this binary as the vet tool: the go command does the
// package loading, export data and caching; the vet protocol brings each
// unit back into this process.
func standalone(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "aq2pnnlint: cannot locate own executable: %v\n", err)
		return 2
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "aq2pnnlint: running go vet: %v\n", err)
		return 2
	}
	return 0
}

func printHelp() {
	fmt.Println("aq2pnnlint enforces the AQ2PNN 2PC engine's static invariants.")
	fmt.Println()
	for _, a := range lint.Suite() {
		fmt.Printf("  %-10s %s\n", a.Name, strings.ReplaceAll(a.Doc, "\n", "\n             "))
	}
	fmt.Println()
	fmt.Println("Suppress one finding with `//lint:allow <rule> <reason>` on or above the line.")
}
