package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload, untraced and traced, at a hundredth of its
// size, and checks that nothing fails and that the metrics and workloads
// printed are exactly the ones BENCHMARK.json lists, with the same units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var listed, known []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
		if k, ok := workloadByName(w.Name); ok && k.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the harness give different reasons", w.Name)
		}
	}
	for _, w := range workloads {
		known = append(known, w.name)
	}
	if !reflect.DeepEqual(listed, known) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the harness has %v", listed, known)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	want := map[bool]map[string]string{false: units(spec.EndToEnd), true: units(spec.PerLayer)}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				rec, err := run(config{workload: w.name, seed: 7, seconds: 0.3, trace: trace, scale: 0.01, outDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if rec.Failed != 0 || !rec.Correct || rec.Attempted < 1 {
					t.Fatalf("attempted %d, failed %d: %s", rec.Attempted, rec.Failed, rec.FirstFail)
				}
				sum, err := rec.summary()
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]string{}
				for n, m := range sum.Metrics {
					got[n] = m.Unit
				}
				if !reflect.DeepEqual(got, want[trace]) {
					t.Errorf("printed metrics differ from BENCHMARK.json:\n got  %v\n want %v", sortedPairs(got), sortedPairs(want[trace]))
				}
				if rec.Environment["git_sha"] == nil || rec.Environment["seed"] == nil {
					t.Error("the environment block is incomplete")
				}
			})
		}
	}
}

func sortedPairs(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return out
}
