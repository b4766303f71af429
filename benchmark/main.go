// Command benchmark is the repository's benchmark: six served workloads,
// each generated from a seed, hosted by the real server on a loopback
// port, driven by real client sessions in a closed loop, and checked answer
// by answer against a naive reference. See README.md.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	benchmark compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Each untraced run sets its workload up at least minSetups times, and
// keeps going while set-ups are cheap (under setupBudget in total, at most
// maxSetups): setup_s is the median, and a 30 ms set-up needs more samples
// than a 500 ms one before one slow fsync or page fault stops moving it.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// endToEndNames and perLayerNames are the metrics BENCHMARK.json lists;
// every workload prints every one of them.
var endToEndNames = []string{"setup_s", "ops_per_s", "p50_us", "allocs_per_op"}

var perLayerNames = []string{
	"server.wire_floor_us", "server.residual_us", "server.stream_rows_per_s", "server.route_approx_share",
	"client.tail_us", "client.tail_pct",
	"sql.parse_us", "sql.bind_us",
	"engine.stmt_us", "engine.stream_rows_per_s", "engine.append_us",
	"aqp.coverage",
	"exec.parallel_speedup", "exec.workers",
	"table.cache_hit_share", "table.decodes_per_op", "table.evictions",
	"storage.encode_mb_s", "storage.decode_mb_s", "storage.bytes_per_value",
	"wal.commit_us", "wal.commit2_us", "wal.records_per_sync", "wal.bytes_per_user_byte",
	"refit.count",
}

// record is the detail result of one run, written to the out directory.
type record struct {
	Workload    string                       `json:"workload"`
	Why         string                       `json:"why"`
	Seed        int64                        `json:"seed"`
	Seconds     float64                      `json:"seconds"`
	Trace       bool                         `json:"trace"`
	Correct     bool                         `json:"correct"`
	Attempted   int64                        `json:"attempted"`
	Failed      int64                        `json:"failed"`
	FirstFail   string                       `json:"first_failure,omitempty"`
	EndToEnd    map[string]metric            `json:"end_to_end"`
	Classes     map[string]map[string]metric `json:"classes"`
	Layers      map[string]metric            `json:"layers,omitempty"`
	SetupRuns   []float64                    `json:"setup_runs_s,omitempty"`
	Environment map[string]any               `json:"environment"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *record) summary() (summary, error) {
	names, from := endToEndNames, r.EndToEnd
	if r.Trace {
		names, from = perLayerNames, r.Layers
	}
	s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := from[n]
		if !ok {
			return s, fmt.Errorf("metric %s was not measured", n)
		}
		s.Metrics[n] = m
	}
	return s, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 8, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for detail records, traces and temporary data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace, cfg.scale = *trace != 0, 1
	rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	sum, err := rec.summary()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := rec.write(cfg.outDir); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if rec.FirstFail != "" {
		fmt.Fprintln(stderr, "benchmark: first failure:", rec.FirstFail)
	}
	detail, _ := json.Marshal(rec)
	last, _ := json.Marshal(sum)
	fmt.Fprintf(stdout, "%s\n%s\n", detail, last)
	return 0
}

// write stores the detail record as <workload>-<seed>[-trace].json.
func (r *record) write(dir string) error {
	name := fmt.Sprintf("%s-%d", r.Workload, r.Seed)
	if r.Trace {
		name += "-trace"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), b, 0o644)
}

// run executes one workload once: set-up, warm-up, the timed or traced
// phase, the final-state checks, and tear-down.
func run(cfg config) (*record, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	rec := &record{Workload: w.name, Why: w.why, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	limit := maxSetups
	if cfg.trace {
		limit = 1 // the traced run does not report setup_s
	}
	var in *instance
	var spent time.Duration
	for i := 0; i < limit && (i < minSetups || spent < setupBudget); i++ {
		if in != nil {
			in.close()
			in = nil
			runtime.GC()
		}
		dir := filepath.Join(tmp, fmt.Sprintf("data-%d", i))
		start := time.Now()
		in, err = w.setup(cfg, dir)
		if err != nil {
			if in != nil {
				in.close()
			}
			return nil, fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		took := time.Since(start)
		spent += took
		rec.SetupRuns = append(rec.SetupRuns, took.Seconds())
	}
	defer func() { in.close() }()

	rec.Layers = map[string]metric{}
	for k, v := range in.layers {
		rec.Layers[k] = v
	}
	var e endToEnd
	if cfg.trace {
		tr := newTracer()
		t, err := newTracedRun(in, tr)
		if err != nil {
			return nil, err
		}
		e = in.measure(cfg.seconds/2, t.each)
		budget(in, t, rec.Layers)
		if err := probeAll(in, tmp, rec.Layers); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		rec.Layers["client.tail_us"], rec.Layers["client.tail_pct"] = e.metrics["tail_us"], e.metrics["tail_pct"]
		if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	} else {
		e = in.measure(cfg.seconds, nil)
		e.metrics["setup_s"] = metric{median(rec.SetupRuns), "s"}
	}
	rec.EndToEnd, rec.Classes = e.metrics, e.classes
	cache := in.eng.ChunkCacheStats()
	rec.Layers["table.run_decodes"] = metric{float64(cache.Misses), "count"}
	rec.Layers["table.run_hits"] = metric{float64(cache.Hits), "count"}
	rec.Layers["table.run_evictions"] = metric{float64(cache.Evictions), "count"}

	if in.finish != nil {
		extra, err := in.finish()
		if err != nil {
			return nil, fmt.Errorf("final checks of %s: %w", w.name, err)
		}
		for k, v := range extra {
			rec.Layers[k] = v
		}
	}
	rec.Attempted, rec.Failed = in.attempted.Load(), in.failed.Load()
	rec.Correct = rec.Failed == 0
	if f, ok := in.firstFail.Load().(string); ok {
		rec.FirstFail = f
	}
	rec.Environment = environment(cfg, in, e.ops)
	return rec, nil
}
