// Command bench is the repository's benchmark: four workloads, nine
// end-to-end metrics and a per-layer ledger (see README.md).
//
//	bash bench/run.sh --workload micro_warm --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -seed 1            # every workload, untraced and traced, each in its own process
//	bash bench/run.sh -compare a.json b.json
//
// With -workload it runs that one workload in this process and prints, as
// the last line of standard output, one JSON object: the end-to-end
// metrics (-trace 0) or the per-layer metrics (-trace 1). Without it, it
// runs the whole suite through subprocesses of itself and writes
// <out>/<label>.json plus one Chrome trace per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in-process (default: the whole suite, one subprocess each)")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	secs := fs.Float64("seconds", runSeconds, "length of the measured window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run and the replays")
	quick := fs.Bool("quick", false, "tiny sizes (Micro everywhere, one unit per window): a smoke run, not a measurement")
	outDir := fs.String("out", "bench/results", "directory for suite results and Chrome traces")
	label := fs.String("label", "run", "suite result file name (<out>/<label>.json)")
	compare := fs.Bool("compare", false, "compare two suite result files: bench -compare parent.json change.json")
	spec := fs.Bool("spec", false, "print BENCHMARK.json as generated from the program's tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *spec:
		b, err := benchmarkJSON()
		if err != nil {
			return fail(err)
		}
		stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *name == "":
		if err := runSuite(stdout, stderr, suiteOptions{
			seed: *seed, seconds: *secs, quick: *quick, outDir: *outDir, label: *label,
		}); err != nil {
			return fail(err)
		}
		return 0
	}

	w := workloadByName(*name)
	if w == nil {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *secs <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}
	runtime.GOMAXPROCS(procs())
	res, err := runWorkload(w, runOptions{seed: *seed, seconds: *secs, traced: *traced != 0, quick: *quick, outDir: *outDir})
	if err != nil {
		return fail(err)
	}
	if err := printRows(stdout, res); err != nil {
		return fail(err)
	}
	if err := printContractLine(stdout, res); err != nil {
		return fail(err)
	}
	if !res.correct() {
		fmt.Fprintf(stderr, "bench: %s: %d of %d inferences failed: %s\n", res.Workload, res.Failed, res.Attempted, res.FirstErr)
		return 1
	}
	return 0
}

// resultPrefix starts the line that carries a run's full result (sample
// counts, extras, digest, calibration) as JSON; the suite reads it back
// from its subprocesses.
const resultPrefix = "result "

// printRows prints every figure as "workload metric value unit n=…", then
// the full result on one line.
func printRows(w io.Writer, res *result) error {
	for _, r := range append(append([]row(nil), res.Rows...), res.Extra...) {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", res.Workload, r.Metric, r.Value, r.Unit, r.N)
	}
	fmt.Fprintf(w, "%s logits_digest %s\n", res.Workload, res.Digest)
	if res.Unstable {
		fmt.Fprintf(w, "%s unstable: the calibration kernel read %.3g ms before and %.3g ms after the run\n", res.Workload, res.CalibMs[0], res.CalibMs[1])
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n", resultPrefix, b)
	return err
}

// contractLine is the one JSON object the driver reads.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContractLine(w io.Writer, res *result) error {
	line := contractLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, r := range res.Rows {
		line.Metrics[r.Metric] = metricValue{r.Value, r.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
