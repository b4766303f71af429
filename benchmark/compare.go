package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// runSet is what run.sh writes: every run of every workload for one commit.
type runSet struct {
	Sha  string    `json:"git_sha"`
	Runs []*record `json:"runs"`
}

// benchSpec is the part of BENCHMARK.json compare needs: each end-to-end
// metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs runSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// values collects one end-to-end metric of one workload over a set's
// untraced runs.
func (rs *runSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.EndToEnd[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func (rs *runSet) failed(workload string) (failed int64) {
	for _, r := range rs.Runs {
		if r.Workload == workload {
			failed += r.Failed
		}
	}
	return failed
}

// verdict classifies B against A for one metric. A pair whose own
// run-to-run spread exceeds the bound cannot resolve a change of the
// bound's size, and is reported as unresolved, never as unchanged.
func verdict(a, b []float64, better string, bound float64) (medA, medB, delta float64, word string) {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	if len(a) == 0 || len(b) == 0 || medA == 0 {
		return medA, medB, 0, "missing"
	}
	delta = (medB - medA) / medA
	worse := delta
	if better == "higher" {
		worse = -delta
	}
	spread := (q3a - q1a) / medA
	if s := (q3b - q1b) / medB; s > spread {
		spread = s
	}
	switch {
	case len(a) > 1 && len(b) > 1 && spread > bound:
		word = "unresolved"
	case worse > bound:
		word = "REGRESSED"
	default:
		word = "ok"
	}
	return medA, medB, delta, word
}

// compareMain prints one row per workload and end-to-end metric: both
// medians, the change, the bound and the verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json B.json (files written by run.sh; run from the repository root)")
		return 2
	}
	status, err := compareFiles(args[0], args[1], stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 1
	}
	return status
}

func compareFiles(pathA, pathB string, stdout io.Writer) (int, error) {
	a, err := loadRunSet(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return 0, err
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return 0, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return 0, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return printComparison(a, b, spec, stdout), nil
}

func printComparison(a, b *runSet, spec benchSpec, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\t%s\t%s\tchange\tbound\tverdict\n", a.Sha, b.Sha)
	status := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			medA, medB, delta, word := verdict(a.values(w.name, m.Name), b.values(w.name, m.Name), m.Better, m.Bound)
			if word == "REGRESSED" {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				w.name, m.Name, m.Unit, medA, medB, 100*delta, 100*m.Bound, word)
		}
		if fa, fb := a.failed(w.name), b.failed(w.name); fa+fb > 0 {
			fmt.Fprintf(tw, "%s\tfailed operations\tcount\t%d\t%d\t\t0\tFAILED\n", w.name, fa, fb)
			status = 1
		}
	}
	_ = tw.Flush()
	return status
}
