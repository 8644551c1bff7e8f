package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// noiseFloor is the absolute worsening below which a timing never counts
// as a regression, so near-zero values do not flap on a relative bound.
var noiseFloor = map[string]float64{"s": 0.05, "ms": 2}

func loadSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untraced returns a workload's untraced runs: the ones the end-to-end
// metrics come from.
func (f *suiteFile) untraced(workload string) []*result {
	var rs []*result
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			rs = append(rs, r)
		}
	}
	return rs
}

// values collects one end-to-end metric's value from every untraced run
// of a workload.
func (f *suiteFile) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.untraced(workload) {
		for _, row := range r.Rows {
			if row.Metric == metric {
				xs = append(xs, row.Value)
			}
		}
	}
	return xs
}

// health sums the failed inferences of a workload's untraced runs and
// reports whether any of them ran on a machine that changed under it.
func health(runs []*result) (failed int, unstable bool) {
	for _, r := range runs {
		failed += r.Failed
		unstable = unstable || r.Unstable
	}
	return failed, unstable
}

// verdict judges one metric on one workload. Exact metrics (bound 0)
// must repeat to the digit within each file and may not worsen at all;
// timing metrics regress when the change's median is worse than the
// parent's by more than the bound (and the noise floor), and are
// unresolved when either side's run-to-run quartile spread is wider than
// the bound — wider than the effect the bound is meant to catch.
func verdict(m endToEndSpec, parent, change []float64) string {
	if len(parent) == 0 || len(change) == 0 {
		return "unresolved"
	}
	mp, mc := median(parent), median(change)
	worse := mc - mp
	if m.Better == "higher" {
		worse = -worse
	}
	if m.Bound == 0 {
		for _, xs := range [][]float64{parent, change} {
			for _, x := range xs {
				if x != xs[0] {
					return "unresolved"
				}
			}
		}
		if worse > 0 {
			return "regressed"
		}
		return "ok"
	}
	if spread(parent) > m.Bound || spread(change) > m.Bound {
		return "unresolved"
	}
	if worse > m.Bound*mp && worse > noiseFloor[m.Unit] {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one verdict per workload × end-to-end metric and
// reports whether anything regressed.
func compareFiles(w io.Writer, parentPath, changePath string) (regressed bool, err error) {
	parent, err := loadSuite(parentPath)
	if err != nil {
		return false, err
	}
	change, err := loadSuite(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "parent %s (%s, seed %d)  change %s (%s, seed %d)\n",
		parentPath, parent.Commit, parent.Seed, changePath, change.Commit, change.Seed)
	for _, wl := range workloadSpecs {
		pf, pu := health(parent.untraced(wl.Name))
		cf, cu := health(change.untraced(wl.Name))
		// Timings of wrong answers mean nothing: more failed inferences
		// than the parent had is a regression whatever the clock says.
		v := "ok"
		if cf > pf {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-18s %-22s %-10s parent %d  change %d  bound 0 count\n", wl.Name, "failed", v, pf, cf)
		for _, m := range endToEndSpecs {
			p, c := parent.values(wl.Name, m.Name), change.values(wl.Name, m.Name)
			v := verdict(m, p, c)
			// A run whose calibration kernel drifted cannot carry a verdict
			// on a toleranced metric either way; the exact counts do not
			// depend on the clock.
			if m.Bound > 0 && (pu || cu) {
				v = "unresolved"
			}
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-22s %-10s parent %.6g (n=%d, spread %.1f%%)  change %.6g (n=%d, spread %.1f%%)  bound %g%% %s\n",
				wl.Name, m.Name, v, median(p), len(p), 100*spread(p), median(c), len(c), 100*spread(c), 100*m.Bound, m.Unit)
		}
		if pu || cu {
			fmt.Fprintf(w, "%-18s unstable run (parent %v, change %v): its toleranced metrics are unresolved\n", wl.Name, pu, cu)
		}
	}
	return regressed, nil
}
