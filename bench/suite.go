package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type suiteOptions struct {
	seed    uint64
	seconds float64
	quick   bool
	outDir  string
	label   string
}

// suiteRuns is how many untraced runs of each workload a suite makes, so
// -compare can see the run-to-run spread; one traced run follows them.
const suiteRuns = 3

// suiteFile is what a suite run leaves behind: where and how it ran, and
// every run of every workload.
type suiteFile struct {
	Schema     int       `json:"schema"`
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Quick      bool      `json:"quick"`
	Started    time.Time `json:"started"`
	Runs       []*result `json:"runs"`
}

// runSuite runs every workload suiteRuns times untraced and once traced,
// each run in a fresh subprocess of this binary so memory figures are per
// workload, and writes <out>/<label>.json. A failed inference anywhere
// fails the suite.
func runSuite(stdout, stderr io.Writer, opt suiteOptions) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	file := suiteFile{
		Schema: 1, Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs(),
		Seed: opt.seed, Seconds: opt.seconds, Quick: opt.quick, Started: time.Now().UTC(),
	}
	var failed []string
	for set := 0; set <= suiteRuns; set++ {
		for _, w := range workloads {
			trace := "0"
			if set == suiteRuns {
				trace = "1" // the traced run comes last, once
			}
			args := []string{
				"-workload", w.spec.Name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds),
				"-trace", trace, "-out", opt.outDir,
			}
			if opt.quick {
				args = append(args, "-quick")
			}
			var out bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &out), stderr
			runErr := cmd.Run()
			res, err := parseResult(out.Bytes())
			if err != nil {
				return fmt.Errorf("%s (trace %s): %v (run: %v)", w.spec.Name, trace, err, runErr)
			}
			file.Runs = append(file.Runs, res)
			if runErr != nil {
				failed = append(failed, w.spec.Name)
			}
		}
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(opt.outDir, opt.label+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results written to %s\n", path)
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, ", "))
	}
	return nil
}

// parseResult finds the full-result line in one run's standard output.
func parseResult(stdout []byte) (*result, error) {
	for _, line := range bytes.Split(stdout, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(resultPrefix)); ok {
			var res result
			if err := json.Unmarshal(rest, &res); err != nil {
				return nil, fmt.Errorf("result line: %w", err)
			}
			return &res, nil
		}
	}
	return nil, errors.New("no result line in the output")
}

// commit names the checkout's commit, or "unknown" outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
