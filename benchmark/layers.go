package main

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"datalaws"
	"datalaws/internal/expr"
	"datalaws/internal/sql"
	"datalaws/internal/storage"
	"datalaws/internal/wal"
)

// Layer metrics come from the traced run only. Each is measured from
// outside the layer, by timing calls into its public functions with the
// workload's own statements, arguments and columns; spans inside the engine
// are a later change. A workload that never calls a layer reports 0 for
// that layer's counts and shares.

// probeCol is one column of the workload's main table as generated.
type probeCol struct {
	name   string
	ints   []int64
	floats []float64
}

// probeInput describes the workload's main table to the probes.
type probeInput struct {
	table string
	cols  []probeCol
	// scanSQL is a full-table aggregate over the main table, run in process
	// at parallelism 1 and nproc for exec.parallel_speedup.
	scanSQL string
	// coverage reports the share of WITH ERROR intervals that held a
	// held-out observation; nil for workloads without APPROX statements.
	coverage func() float64
}

func (p probeInput) rows() int {
	if p.cols[0].ints != nil {
		return len(p.cols[0].ints)
	}
	return len(p.cols[0].floats)
}

func (p probeInput) ddl() string {
	var defs []string
	for _, c := range p.cols {
		typ := "DOUBLE"
		if c.ints != nil {
			typ = "BIGINT"
		}
		defs = append(defs, c.name+" "+typ)
	}
	return "CREATE TABLE " + p.table + " (" + strings.Join(defs, ", ") + ")"
}

// batch boxes rows [from, from+n) of the main table, wrapping around.
func (p probeInput) batch(from, n int) [][]expr.Value {
	out := make([][]expr.Value, n)
	for i := range out {
		r := (from + i) % p.rows()
		row := make([]expr.Value, len(p.cols))
		for j, c := range p.cols {
			if c.ints != nil {
				row[j] = expr.Int(c.ints[r])
			} else {
				row[j] = expr.Float(c.floats[r])
			}
		}
		out[i] = row
	}
	return out
}

// timeEach calls f n times and returns each call's microseconds.
func timeEach(n int, f func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return out, nil
}

// probeSQL times sql.Parse and sql.BindPrepared on every statement the
// workload sends. Prepared traffic pays neither parse nor plan per
// operation, so a parser change must not move any end-to-end metric.
func probeSQL(in *instance, m map[string]metric) error {
	var parse, bind []float64
	rng := rand.New(rand.NewSource(1))
	for _, c := range in.classes {
		p, err := timeEach(200, func(int) error { _, err := sql.Parse(c.sql); return err })
		if err != nil {
			return err
		}
		parse = append(parse, median(p))
		ast, err := sql.Parse(c.sql)
		if err != nil {
			return err
		}
		vals := boxArgs(c.next(rng).args)
		b, err := timeEach(1000, func(int) error { _, err := sql.BindPrepared(ast, vals, len(vals)); return err })
		if err != nil {
			return err
		}
		bind = append(bind, median(b))
	}
	// One number per workload: the median statement's cost, with the
	// per-class values beside it for mixes.
	m["sql.parse_us"] = metric{median(parse), "us"}
	m["sql.bind_us"] = metric{median(bind), "us"}
	for i, c := range in.classes {
		m["sql.parse_us."+c.name] = metric{parse[i], "us"}
		m["sql.bind_us."+c.name] = metric{bind[i], "us"}
	}
	return nil
}

func boxArgs(args []any) []expr.Value {
	vals := make([]expr.Value, len(args))
	for i, v := range args {
		switch x := v.(type) {
		case int64:
			vals[i] = expr.Int(x)
		case float64:
			vals[i] = expr.Float(x)
		}
	}
	return vals
}

// probeStorage encodes and decodes the main table's own columns in
// 16K-row chunks, the unit the table seals and the cache decodes.
func probeStorage(p probeInput, m map[string]metric) error {
	const chunk = 16384
	var encNs, decNs, raw, enc float64
	for from := 0; from < p.rows() && from < 8*chunk; from += chunk {
		to := from + chunk
		if to > p.rows() {
			to = p.rows()
		}
		for _, c := range p.cols {
			var col storage.Column
			if c.ints != nil {
				ic := storage.NewInt64Column()
				for _, v := range c.ints[from:to] {
					ic.Append(v)
				}
				col = ic
			} else {
				fc := storage.NewFloat64Column()
				for _, v := range c.floats[from:to] {
					fc.Append(v)
				}
				col = fc
			}
			start := time.Now()
			b := storage.EncodeColumn(col)
			encNs += float64(time.Since(start).Nanoseconds())
			start = time.Now()
			back, err := storage.DecodeColumn(b)
			decNs += float64(time.Since(start).Nanoseconds())
			if err != nil || back.Len() != col.Len() {
				return fmt.Errorf("storage round trip of column %s failed: %v", c.name, err)
			}
			raw += float64(8 * (to - from))
			enc += float64(len(b))
		}
	}
	m["storage.encode_mb_s"] = metric{raw / 1e6 / (encNs / 1e9), "MB/s"}
	m["storage.decode_mb_s"] = metric{raw / 1e6 / (decNs / 1e9), "MB/s"}
	m["storage.bytes_per_value"] = metric{enc / (raw / 8), "B"}
	return nil
}

// probeWAL appends the workload's own 64-row batches to a log of its own,
// with one caller and with two, under the same flush policy the durable
// workloads use. One caller is the lone-writer case, where a commit group
// may wait out MaxWait for company that never comes.
func probeWAL(p probeInput, dir string, m map[string]metric) error {
	commit := func(callers, each int) (lat []float64, st wal.Stats, err error) {
		d, err := os.MkdirTemp(dir, "walprobe-")
		if err != nil {
			return nil, st, err
		}
		defer os.RemoveAll(d)
		l, err := wal.Open(d, 0, wal.Config{}, func(*wal.Record) error { return nil })
		if err != nil {
			return nil, st, err
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		var firstErr error
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rec := &wal.Record{Type: wal.TypeAppend, Table: p.table, Rows: p.batch(c*each*batchRows, batchRows)}
				us, err := timeEach(each, func(int) error { return l.Append(rec) })
				mu.Lock()
				lat = append(lat, us...)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		st = l.Stats()
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		return lat, st, firstErr
	}
	one, st1, err := commit(1, 100)
	if err != nil {
		return err
	}
	two, st2, err := commit(2, 100)
	if err != nil {
		return err
	}
	user := float64(st1.Records) * batchRows * float64(8*len(p.cols))
	m["wal.commit_us"] = metric{median(one), "us"}
	m["wal.commit2_us"] = metric{median(two), "us"}
	m["wal.records_per_sync"] = metric{float64(st2.Records) / float64(max(st2.Syncs, 1)), "ratio"}
	m["wal.bytes_per_user_byte"] = metric{float64(st1.SegmentBytes) / user, "ratio"}
	return nil
}

// probeAppend appends the same batches in process to a table without a
// WAL: route, apply, drift observe and chunk seal, everything of the write
// path that is not the log.
func probeAppend(p probeInput, m map[string]metric) error {
	eng := datalaws.NewEngine()
	if _, err := eng.Exec(p.ddl()); err != nil {
		return err
	}
	batches := make([][][]expr.Value, 16)
	for i := range batches {
		batches[i] = p.batch(i*batchRows, batchRows)
	}
	// 1024 batches cross four chunk seals.
	us, err := timeEach(1024, func(i int) error {
		_, err := eng.Append(p.table, batches[i%len(batches)])
		return err
	})
	if err != nil {
		return err
	}
	m["engine.append_us"] = metric{median(us), "us"}
	return nil
}

// probeParallel runs the full-table aggregate in process serially and with
// every processor. A group-by waits for its slowest morsel, so the worker
// count is printed beside GOMAXPROCS: on one core 1× is physics.
func probeParallel(in *instance, m map[string]metric) error {
	st, err := in.eng.Prepare(in.probe.scanSQL)
	if err != nil {
		return err
	}
	run := func(workers int) (float64, error) {
		in.eng.SetParallelism(workers)
		defer in.eng.SetParallelism(in.parallelism)
		var a answer
		c := &class{fold: true}
		if err := engineExec(st, c, nil, &a); err != nil { // warm
			return 0, err
		}
		us, err := timeEach(5, func(int) error { return engineExec(st, c, nil, &a) })
		return median(us), err
	}
	serial, err := run(1)
	if err != nil {
		return err
	}
	par, err := run(in.parallelism)
	if err != nil {
		return err
	}
	m["exec.parallel_speedup"] = metric{serial / par, "ratio"}
	m["exec.workers"] = metric{float64(in.parallelism), "count"}
	m["exec.gomaxprocs"] = metric{float64(runtime.GOMAXPROCS(0)), "count"}
	return nil
}

// scrape reads the server's own counters through its metrics endpoint.
func scrape(in *instance) map[string]float64 {
	rec := httptest.NewRecorder()
	in.srv.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok {
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				out[strings.TrimPrefix(name, "datalaws_")] = f
			}
		}
	}
	return out
}

// probeRoutes reports which route answered the run's SELECTs. An APPROX
// workload must stay at 1: a fallback to the exact plan is a failure even
// when the answer is right.
func probeRoutes(in *instance, m map[string]metric) {
	s := scrape(in)
	approx, exact, fallback := s["route_approx_total"], s["route_exact_total"], s["route_exact_fallback_total"]
	share := 0.0
	if total := approx + exact + fallback; total > 0 {
		share = approx / total
	}
	m["server.route_approx_share"] = metric{share, "ratio"}
	m["refit.count"] = metric{s["refits_total"], "count"}
}

// budget turns the traced spans of the primary class into the layer
// budget: wire floor + engine statement + residual accounts for the round
// trip, each a median over the same operations.
func budget(in *instance, t *tracedRun, m map[string]metric) {
	primary := in.classes[in.primary]
	dur, self := t.tr.durations(primary.name), t.tr.selfTimes(primary.name)
	m["server.wire_floor_us"] = metric{median(dur["wire.ping"]), "us"}
	m["server.residual_us"] = metric{median(self["client.op"]), "us"}
	m["engine.stmt_us"] = metric{median(dur["engine.stmt"]), "us"}
	m["engine.stmt_self_us"] = metric{median(self["engine.stmt"]), "us"}
	m["client.op_us"] = metric{median(dur["client.op"]), "us"}
	if b := dur["aqp.bind"]; len(b) > 0 {
		m["aqp.bind_us"] = metric{median(b), "us"}
	}
	for _, c := range in.classes {
		d := t.tr.durations(c.name)
		m["engine.stmt_us."+c.name] = metric{median(d["engine.stmt"]), "us"}
		m["client.op_us."+c.name] = metric{median(d["client.op"]), "us"}
	}
	// Rows per second of the primary statement's result stream, over the
	// wire and in process: the pair that matters for bulk results.
	rowsPerOp := float64(t.primaryRows.Load())
	m["server.stream_rows_per_s"] = metric{rowsPerOp / (median(dur["client.op"]) / 1e6), "1/s"}
	m["engine.stream_rows_per_s"] = metric{rowsPerOp / (median(dur["engine.stmt"]) / 1e6), "1/s"}

	ops := 0
	for _, s := range in.sessions {
		ops += s.ops
	}
	accesses := float64(t.cache.Hits + t.cache.Misses)
	share := 0.0
	if accesses > 0 {
		share = float64(t.cache.Hits) / accesses
	}
	m["table.cache_hit_share"] = metric{share, "ratio"}
	m["table.decodes_per_op"] = metric{float64(t.cache.Misses) / float64(max(ops, 1)), "count"}
	m["table.evictions"] = metric{float64(t.cache.Evictions), "count"}
	cov := 0.0
	if in.probe.coverage != nil {
		cov = in.probe.coverage()
	}
	m["aqp.coverage"] = metric{cov, "ratio"}
}

// probeAll runs every probe that does not need the traced spans.
func probeAll(in *instance, dir string, m map[string]metric) error {
	if err := probeSQL(in, m); err != nil {
		return err
	}
	if err := probeStorage(in.probe, m); err != nil {
		return err
	}
	if err := probeWAL(in.probe, dir, m); err != nil {
		return err
	}
	if err := probeAppend(in.probe, m); err != nil {
		return err
	}
	if err := probeParallel(in, m); err != nil {
		return err
	}
	probeRoutes(in, m)
	if st, ok := in.eng.WALStats(); ok && st.Syncs > 0 {
		// The durable workloads' own log, beside the probe's.
		m["wal.engine_records_per_sync"] = metric{float64(st.Records) / float64(st.Syncs), "ratio"}
	}
	return nil
}
