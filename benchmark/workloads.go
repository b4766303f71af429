package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"datalaws"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/refit"
	"datalaws/internal/synth"
	"datalaws/internal/table"
	"datalaws/internal/wal"
)

// workload is one traffic mix with its inputs. Names are fixed: later
// changes cite them.
type workload struct {
	name  string
	why   string
	setup func(cfg config, dir string) (*instance, error)
}

var workloads = []workload{
	{"approx_point", "prepared APPROX point lookups: tiny question, tiny answer, zero IO, so the wire does nearly all the work", setupApproxPoint},
	{"exact_hot", "exact point/range/group-by/top-k/join mix on 2M rows inside the decoded-chunk cache: the executor does the work", setupExact(true)},
	{"exact_cold", "the same mix with an 8 MiB chunk cache, a sixth of the table: codec and cache do the work", setupExact(false)},
	{"scan_stream", "full drains of a 200k-row result over the wire: result encoding does the work, the opposite use of the server", setupScanStream},
	{"ingest_durable", "two sessions of 64-row INSERTs into a WAL-backed engine: group commit and fsync do the work", setupIngestDurable},
	{"mixed_live", "a durable writer beside APPROX and exact readers on one table with auto-refit: the only workload with contention", setupMixedLive},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sessionsFor caps client sessions at the processor count: more callers
// than cores would measure the scheduler.
func sessionsFor(want int) int {
	if n := runtime.NumCPU(); n < want {
		return n
	}
	return want
}

// batchRows is the ingest batch: one prepared INSERT carries this many
// rows, one WAL record.
const batchRows = 64

// lofarNoise is the relative observation noise. At the generator's default
// of 0.05 the four bands leave the median R² near the 0.8 trust threshold,
// and some seeds would fall below it and turn every lookup into an error.
const lofarNoise = 0.03

const (
	measurementsDDL = "CREATE TABLE measurements (source BIGINT, nu DOUBLE, intensity DOUBLE)"
	fitSpectraSQL   = "FIT MODEL spectra ON measurements AS 'intensity ~ p * pow(nu, alpha)' INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)"
	approxPointSQL  = "APPROX SELECT intensity, intensity_lo, intensity_hi FROM measurements WHERE source = ? AND nu = ? WITH ERROR"
	tableTDDL       = "CREATE TABLE t (a BIGINT, g BIGINT, v DOUBLE)"
)

// load appends n generated rows to a table in engine-sized batches,
// reusing the boxed rows: Append copies values into columns.
func load(eng *datalaws.Engine, name string, n, cols int, fill func(i int, row []expr.Value)) error {
	const batch = 8192
	buf := make([][]expr.Value, 0, batch)
	for i := 0; i < batch && i < n; i++ {
		buf = append(buf, make([]expr.Value, cols))
	}
	for done := 0; done < n; {
		k := len(buf)
		if n-done < k {
			k = n - done
		}
		for i := 0; i < k; i++ {
			fill(done+i, buf[i])
		}
		if _, err := eng.Append(name, buf[:k]); err != nil {
			return err
		}
		done += k
	}
	return nil
}

// lofar generates the seeded measurements, loads them and captures the
// power law; it returns the data and the FIT MODEL wall time.
func lofar(eng *datalaws.Engine, cfg config, minSources int) (*synth.LOFARData, int, float64, error) {
	nSrc := cfg.scaled(1000, minSources)
	d := synth.GenerateLOFAR(synth.LOFARConfig{Sources: nSrc, ObsPerSource: 40, NoiseFrac: lofarNoise, Seed: cfg.seed})
	if _, err := eng.Exec(measurementsDDL); err != nil {
		return nil, 0, 0, err
	}
	err := load(eng, "measurements", d.NumRows(), 3, func(i int, row []expr.Value) {
		row[0], row[1], row[2] = expr.Int(d.Source[i]), expr.Float(d.Nu[i]), expr.Float(d.Intensity[i])
	})
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	if _, err := eng.Exec(fitSpectraSQL); err != nil {
		return nil, 0, 0, err
	}
	return d, nSrc, time.Since(start).Seconds(), nil
}

func lofarProbe(d *synth.LOFARData) probeInput {
	return probeInput{
		table: "measurements",
		cols: []probeCol{
			{name: "source", ints: d.Source}, {name: "nu", floats: d.Nu}, {name: "intensity", floats: d.Intensity},
		},
		scanSQL: "SELECT source, count(*), avg(intensity) FROM measurements GROUP BY source",
	}
}

func spectra(eng *datalaws.Engine) func() *modelstore.CapturedModel {
	return func() *modelstore.CapturedModel {
		m, _ := eng.Models.Get("spectra")
		return m
	}
}

// setupApproxPoint: the paper's dominant interaction. The engine answers in
// about a microsecond, so a wire change must show here and a scan or WAL
// change must not.
func setupApproxPoint(cfg config, _ string) (*instance, error) {
	eng := datalaws.NewEngine()
	in := newInstance(eng, table.DefaultChunkCacheBytes)
	d, nSrc, fitS, err := lofar(eng, cfg, 20)
	if err != nil {
		return in, err
	}
	ref := &lawRef{truth: d.Truth, noise: lofarNoise, nSrc: nSrc, models: spectra(eng)}
	in.classes = []*class{{name: "point", sql: approxPointSQL, next: ref.point}}
	in.layers = map[string]metric{"modelstore.fit_s": {fitS, "s"}}
	in.probe = lofarProbe(d)
	in.probe.coverage = ref.coverage
	in.env = map[string]any{"sources": nSrc, "rows": d.NumRows(), "noise_frac": lofarNoise}
	if in.srv, err = host(eng); err != nil {
		return in, err
	}
	for i := 0; i < sessionsFor(2); i++ {
		if _, err := in.connect(cfg.seed*1000+int64(i), []int{0}); err != nil {
			return in, err
		}
	}
	return in, nil
}

// exactCycle is one round of the exact mix: 100 points, 50 range
// aggregates, 1 group-by, 1 top-k and 2 joins, which at the seed commit
// spend comparable time in each class.
func exactCycle() []int {
	var c []int
	for class, n := range []int{100, 50, 1, 1, 2} {
		for i := 0; i < n; i++ {
			c = append(c, class)
		}
	}
	return c
}

// setupExact: exact analytics where the wire carries tiny results. Hot
// keeps the decoded table inside the chunk cache so the executor does the
// work; cold shrinks the cache to a sixth of the table so scans stream
// through it and windows mostly miss. A codec or cache change must move
// cold and leave hot flat; a kernel change must move both. top-k and join
// still run on the row operators, so collapsing the executors shows here.
func setupExact(hot bool) func(cfg config, _ string) (*instance, error) {
	return func(cfg config, _ string) (*instance, error) {
		n, window := cfg.scaled(2_000_000, 20_000), cfg.scaled(50_000, 500)
		budget := int64(table.DefaultChunkCacheBytes)
		if !hot {
			budget = int64(float64(8<<20) * cfg.scale)
		}
		eng := datalaws.NewEngine()
		in := newInstance(eng, budget)

		rng := rand.New(rand.NewSource(cfg.seed))
		a, g, v := make([]int64, n), make([]int64, n), make([]float64, n)
		for i := range v {
			a[i], g[i], v[i] = int64(i), rng.Int63n(1000), 10+rng.NormFloat64()
		}
		w := make([]int64, 1000)
		for i := range w {
			w[i] = int64(rng.Intn(10))
		}
		for _, ddl := range []string{tableTDDL, "CREATE TABLE dim (g BIGINT, w BIGINT)"} {
			if _, err := eng.Exec(ddl); err != nil {
				return in, err
			}
		}
		err := load(eng, "t", n, 3, func(i int, row []expr.Value) {
			row[0], row[1], row[2] = expr.Int(a[i]), expr.Int(g[i]), expr.Float(v[i])
		})
		if err != nil {
			return in, err
		}
		err = load(eng, "dim", len(w), 2, func(i int, row []expr.Value) {
			row[0], row[1] = expr.Int(int64(i)), expr.Int(w[i])
		})
		if err != nil {
			return in, err
		}
		ref := newExactRef(g, v, w, window)
		in.classes = []*class{
			{name: "point", sql: "SELECT v FROM t WHERE a = ?", next: ref.point},
			{name: "range_agg", sql: "SELECT count(*), avg(v) FROM t WHERE a >= ? AND a < ?", next: ref.rangeAgg},
			{name: "groupby", sql: "SELECT g, count(*), avg(v) FROM t GROUP BY g", next: ref.groupBy},
			{name: "topk", sql: "SELECT a, v FROM t WHERE a >= ? AND a < ? ORDER BY v DESC LIMIT 10", next: ref.topK},
			{name: "join", sql: "SELECT w, count(*), avg(v) FROM t JOIN dim ON t.g = dim.g WHERE a >= ? AND a < ? GROUP BY w", next: ref.join},
		}
		in.primary = 1
		in.probe = probeInput{
			table:   "t",
			cols:    []probeCol{{name: "a", ints: a}, {name: "g", ints: g}, {name: "v", floats: v}},
			scanSQL: in.classes[2].sql,
		}
		in.env = map[string]any{"rows": n, "window_rows": window, "decoded_bytes": n * 24}
		if in.srv, err = host(eng); err != nil {
			return in, err
		}
		_, err = in.connect(cfg.seed*1000, exactCycle())
		return in, err
	}
}

// setupScanStream: the server layer used the other way, bulk results
// instead of small messages. A framing change that helps approx_point but
// costs batches shows here.
func setupScanStream(cfg config, _ string) (*instance, error) {
	n := cfg.scaled(200_000, 2_000)
	eng := datalaws.NewEngine()
	in := newInstance(eng, table.DefaultChunkCacheBytes)
	rng := rand.New(rand.NewSource(cfg.seed))
	a, b := make([]int64, n), make([]float64, n)
	ref := &streamRef{rows: n}
	for i := range a {
		a[i], b[i] = int64(i), 1000*rng.Float64()
		ref.sumA += float64(a[i])
		ref.sumB += b[i]
	}
	if _, err := eng.Exec("CREATE TABLE big (a BIGINT, b DOUBLE)"); err != nil {
		return in, err
	}
	err := load(eng, "big", n, 2, func(i int, row []expr.Value) {
		row[0], row[1] = expr.Int(a[i]), expr.Float(b[i])
	})
	if err != nil {
		return in, err
	}
	in.classes = []*class{{name: "drain", sql: "SELECT a, b FROM big", fold: true, next: ref.drain}}
	in.probe = probeInput{
		table:   "big",
		cols:    []probeCol{{name: "a", ints: a}, {name: "b", floats: b}},
		scanSQL: "SELECT count(*), avg(b) FROM big",
	}
	in.env = map[string]any{"rows": n, "fetch_rows": "server default"}
	if in.srv, err = host(eng); err != nil {
		return in, err
	}
	_, err = in.connect(cfg.seed*1000, []int{0})
	return in, err
}

// walPolicy is the flush policy every durable workload runs with, stated
// in the result so both sides of a comparison can be seen to share it.
func walPolicy(dir string) map[string]any {
	return map[string]any{
		"fsync":      "one real fsync per commit group (wal.Config{} defaults)",
		"batch_size": 128,
		"max_wait":   "2ms",
		"filesystem": filesystemOf(dir),
	}
}

// count runs a one-row aggregate over integers in process; sum() answers
// in floating point, exactly for the magnitudes here.
func count(eng *datalaws.Engine, q string) ([]int64, error) {
	res, err := eng.ExecContext(context.Background(), q)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) != 1 {
		return nil, fmt.Errorf("%s: %d rows", q, len(res.Rows))
	}
	out := make([]int64, len(res.Rows[0]))
	for i, v := range res.Rows[0] {
		out[i] = v.I
		if v.K == expr.KindFloat {
			out[i] = int64(v.F)
		}
	}
	return out, nil
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// setupIngestDurable: the write path. internal/wal does the work and the
// executor none. The table starts with 128k rows so that batches land in a
// table with sealed chunks, as a live one has.
func setupIngestDurable(cfg config, dir string) (*instance, error) {
	eng, err := datalaws.Open(dir, wal.Config{})
	if err != nil {
		return nil, err
	}
	in := newInstance(eng, table.DefaultChunkCacheBytes)
	if _, err := eng.Exec(tableTDDL); err != nil {
		return in, err
	}
	n := cfg.scaled(131_072, 1_024)
	rng := rand.New(rand.NewSource(cfg.seed))
	a, g, v := make([]int64, n), make([]int64, n), make([]float64, n)
	ref := &ingestRef{batch: batchRows}
	for i := range a {
		a[i], g[i], v[i] = int64(i), rng.Int63n(1000), 10+rng.NormFloat64()
		ref.sumA.Add(a[i])
	}
	ref.next.Store(int64(n))
	ref.acked.Store(int64(n))
	err = load(eng, "t", n, 3, func(i int, row []expr.Value) {
		row[0], row[1], row[2] = expr.Int(a[i]), expr.Int(g[i]), expr.Float(v[i])
	})
	if err != nil {
		return in, err
	}
	in.classes = []*class{{name: "batch", sql: insertSQL("t", 3, batchRows), rowsIn: batchRows, next: ref.batchOp}}
	in.probe = probeInput{
		table:   "t",
		cols:    []probeCol{{name: "a", ints: a}, {name: "g", ints: g}, {name: "v", floats: v}},
		scanSQL: "SELECT g, count(*), avg(v) FROM t GROUP BY g",
	}
	in.env = map[string]any{"preloaded_rows": n, "batch_rows": batchRows, "wal": walPolicy(dir)}
	if in.srv, err = host(eng); err != nil {
		return in, err
	}
	for i := 0; i < sessionsFor(2); i++ {
		if _, err := in.connect(cfg.seed*1000+int64(i), []int{0}); err != nil {
			return in, err
		}
	}
	in.finish = func() (map[string]metric, error) { return finishIngest(in, ref, dir) }
	return in, nil
}

// finishIngest is the durability check: the table holds exactly the
// acknowledged rows now, and again after a checkpoint, more appends, a
// close and a reopen from the directory alone.
func finishIngest(in *instance, ref *ingestRef, dir string) (map[string]metric, error) {
	matches := func(what string) error {
		got, err := count(in.eng, "SELECT count(*), sum(a) FROM t")
		if err != nil {
			return err
		}
		ok := got[0] == ref.acked.Load() && got[1] == ref.sumA.Load()
		in.check(ok, fmt.Sprintf("%s: table holds %d rows (sum a %d), acknowledged %d (sum a %d)",
			what, got[0], got[1], ref.acked.Load(), ref.sumA.Load()))
		return nil
	}
	if err := matches("after the run"); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := in.eng.Checkpoint(); err != nil {
		return nil, err
	}
	checkpointS := time.Since(start).Seconds()
	for _, s := range in.sessions {
		for i := 0; i < 10; i++ {
			in.do(s, 0, false)
		}
	}
	userBytes := float64(ref.acked.Load() * 24)
	for _, s := range in.sessions {
		_ = s.cli.Close()
	}
	_ = in.srv.Close()
	if err := in.eng.Close(); err != nil {
		return nil, err
	}
	disk := float64(dirBytes(dir))
	start = time.Now()
	eng, err := datalaws.Open(dir, wal.Config{})
	if err != nil {
		return nil, err
	}
	recoverS := time.Since(start).Seconds()
	in.eng = eng
	if err := matches("after checkpoint, appends, close and reopen"); err != nil {
		return nil, err
	}
	return map[string]metric{
		"persist.checkpoint_s":             {checkpointS, "s"},
		"persist.recover_s":                {recoverS, "s"},
		"persist.disk_bytes_per_user_byte": {disk / userBytes, "ratio"},
	}, nil
}

// setupMixedLive: writes beside reads on one table, the paper's capture
// loop. Session W appends observations for the upper half of the sources
// (the table grows severalfold, so the growth trigger refits repeatedly);
// session R sends nine APPROX points to one exact range aggregate over the
// lower half, whose reference the writer never touches. A read-side gain
// that holds a lock longer, or a WAL gain that starves readers, shows as
// the other side's median moving.
func setupMixedLive(cfg config, dir string) (*instance, error) {
	eng, err := datalaws.Open(dir, wal.Config{})
	if err != nil {
		return nil, err
	}
	in := newInstance(eng, table.DefaultChunkCacheBytes)
	// Serve while stale with widened bounds and never revoke: with the
	// default policy a model is distrusted from 20 % growth but refitted
	// only at 50 %, and every lookup in between would be an error.
	eng.AQP.Policy.MaxStalenessFrac = 0
	eng.AQP.StaleInflate = true
	d, nSrc, fitS, err := lofar(eng, cfg, 40)
	if err != nil {
		return in, err
	}
	half := int64(nSrc / 2)
	law := &lawRef{truth: d.Truth, noise: lofarNoise, nSrc: nSrc, models: spectra(eng)}
	law.remember(law.models())
	agg := newSourceRef(d, nSrc, half, int64(nSrc/20))
	var acked atomic.Int64 // rows the server acknowledged, seeded ones included
	acked.Store(int64(d.NumRows()))
	write := func(rng *rand.Rand) operation {
		args := make([]any, 0, 3*batchRows)
		for i := 0; i < batchRows; i++ {
			src := half + 1 + rng.Int63n(int64(nSrc)-half)
			nu := synth.Bands[rng.Intn(len(synth.Bands))]
			tr := d.Truth[src]
			args = append(args, src, nu, tr.P*math.Pow(nu, tr.Alpha)*(1+lofarNoise*rng.NormFloat64()))
		}
		return operation{args, func(ans *answer) bool {
			if ans.info != fmt.Sprintf("%d rows inserted", batchRows) {
				return false
			}
			acked.Add(batchRows)
			return true
		}}
	}
	in.classes = []*class{
		{name: "read_point", sql: approxPointSQL, next: law.point},
		{name: "read_range_agg", sql: "SELECT count(*), avg(intensity) FROM measurements WHERE source >= ? AND source < ?", next: agg.rangeAgg},
		{name: "write", sql: insertSQL("measurements", 3, batchRows), rowsIn: batchRows, next: write},
	}
	in.layers = map[string]metric{"modelstore.fit_s": {fitS, "s"}}
	in.probe = lofarProbe(d)
	in.probe.coverage = law.coverage
	in.env = map[string]any{
		"sources": nSrc, "seeded_rows": d.NumRows(), "batch_rows": batchRows, "wal": walPolicy(dir),
		"staleness_policy": "MaxStalenessFrac=0, StaleInflate=true (serve while stale, widened, never revoke)",
		"auto_refit":       "refit.Options defaults (growth trigger at 50 %)",
	}
	if in.srv, err = host(eng); err != nil {
		return in, err
	}
	var lagMu sync.Mutex
	var lags []float64
	metrics := in.srv.Metrics()
	eng.EnableAutoRefit(refit.Options{OnEvent: func(ev refit.Event) {
		metrics.RecordRefit(ev)
		law.remember(law.models())
		lagMu.Lock()
		lags = append(lags, float64(ev.Took.Microseconds())/1e3)
		lagMu.Unlock()
	}})
	if _, err := in.connect(cfg.seed*1000, []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 1}); err != nil {
		return in, err
	}
	if sessionsFor(2) < 2 {
		return in, fmt.Errorf("mixed_live needs two processors for its two sessions")
	}
	if _, err := in.connect(cfg.seed*1000+1, []int{2}); err != nil {
		return in, err
	}
	in.finish = func() (map[string]metric, error) {
		got, err := count(in.eng, "SELECT count(*) FROM measurements")
		if err != nil {
			return nil, err
		}
		in.check(got[0] == acked.Load(), fmt.Sprintf("table holds %d rows, acknowledged %d", got[0], acked.Load()))
		lagMu.Lock()
		defer lagMu.Unlock()
		return map[string]metric{
			"refit.lag_ms":          {median(lags), "ms"},
			"oracle.unpinned_reads": {float64(law.unpinned.Load()), "count"},
		}, nil
	}
	return in, nil
}
