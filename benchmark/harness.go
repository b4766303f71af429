package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"datalaws"
	"datalaws/internal/aqp"
	"datalaws/internal/expr"
	"datalaws/internal/server"
	"datalaws/internal/sql"
	"datalaws/internal/table"
)

// metric is one named number with its unit, as every result prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed (or traced) phase
	trace    bool
	// scale multiplies every data size; 1 is the benchmark, the smoke test
	// runs at 1/100.
	scale  float64
	outDir string // detail records, traces and temporary data directories
}

// scaled applies cfg.scale to a row or source count, keeping at least min.
func (c config) scaled(n, min int) int {
	s := int(float64(n) * c.scale)
	if s < min {
		return min
	}
	return s
}

// answer is what one executed statement produced, reduced to what the
// oracle needs: the row count, the rows themselves for small results or
// the column sums for streamed ones, and the statement's metadata.
type answer struct {
	n        int
	rows     [][]expr.Value
	sums     []float64
	info     string
	version  int
	fallback bool
}

func (a *answer) reset() {
	a.n, a.rows, a.info, a.version, a.fallback = 0, a.rows[:0], "", 0, false
	for i := range a.sums {
		a.sums[i] = 0
	}
}

// keepRows bounds how many rows an answer retains for the oracle; classes
// with larger results are folded into column sums instead.
const keepRows = 4096

// operation is one statement execution: its bound arguments and the
// reference check of its answer.
type operation struct {
	args  []any
	check func(*answer) bool
}

// class is one kind of statement a workload sends.
type class struct {
	name string
	sql  string
	// fold makes the harness keep column sums instead of rows (bulk
	// results); rowsIn is the number of rows a write statement carries.
	fold   bool
	rowsIn int
	// next draws the next operation's arguments from the session's seeded
	// generator and pairs them with the oracle's check.
	next func(r *rand.Rand) operation
}

// rowStream is the cursor shape shared by the wire client and the engine.
type rowStream interface {
	Next() bool
	Row() []expr.Value
	Err() error
	Close() error
}

// engineRows adapts the in-process cursor's named row type.
type engineRows struct{ *datalaws.Rows }

func (r engineRows) Row() []expr.Value { return r.Rows.Row() }

// drain consumes a cursor into a, copying kept rows because a cursor's
// current row is only valid until its next advance.
func drain(rs rowStream, fold bool, a *answer) error {
	for rs.Next() {
		row := rs.Row()
		a.n++
		if fold {
			if a.sums == nil {
				a.sums = make([]float64, len(row))
			}
			for i, v := range row {
				switch v.K {
				case expr.KindInt:
					a.sums[i] += float64(v.I)
				case expr.KindFloat:
					a.sums[i] += v.F
				}
			}
			continue
		}
		if a.n <= keepRows {
			if len(a.rows) < cap(a.rows) {
				a.rows = a.rows[:len(a.rows)+1]
				a.rows[len(a.rows)-1] = append(a.rows[len(a.rows)-1][:0], row...)
			} else {
				a.rows = append(a.rows, append([]expr.Value(nil), row...))
			}
		}
	}
	if err := rs.Err(); err != nil {
		_ = rs.Close()
		return err
	}
	return rs.Close()
}

// wireExec runs one prepared statement over the session's TCP connection.
func wireExec(st *server.Stmt, c *class, args []any, a *answer) error {
	a.reset()
	rows, err := st.Query(args...)
	if err != nil {
		return err
	}
	a.info, a.version, a.fallback = rows.Info, rows.ModelVersion, rows.ExactFallback
	return drain(rows, c.fold, a)
}

// engineExec runs the same prepared statement in process.
func engineExec(st *datalaws.Stmt, c *class, args []any, a *answer) error {
	a.reset()
	rows, err := st.Query(context.Background(), args...)
	if err != nil {
		return err
	}
	a.info, a.version, a.fallback = rows.Info, rows.ModelVersion, rows.ExactFallback
	return drain(engineRows{rows}, c.fold, a)
}

// session is one closed-loop caller: it sends its next statement only when
// the previous answer has arrived and been checked.
type session struct {
	cli   *server.Client
	stmts []*server.Stmt // by class index; nil for classes it never sends
	// cycle lists the class indices of one round of this session's
	// schedule. Each round is shuffled by the seeded generator and always
	// finished, so every run sends its classes in exactly these shares.
	cycle  []int
	rng    *rand.Rand
	ans    answer // the latest wire answer
	replay answer // the latest in-process answer (traced run)
	order  []int

	lat     [][]float64 // per class, microseconds, timed operations only
	ops     int         // timed operations
	rows    int         // rows returned or ingested by timed operations
	elapsed time.Duration
}

// instance is one set-up of a workload: an engine, the server hosting it
// on a loopback port, connected sessions with their statements prepared,
// and the oracle's references captured in the classes' closures.
type instance struct {
	eng      *datalaws.Engine
	srv      *server.Server
	classes  []*class
	sessions []*session
	// primary indexes the class whose layer budget the traced run reports.
	primary int
	// parallelism and cacheBudget are the engine knobs the set-up chose,
	// recorded in the environment block.
	parallelism int
	cacheBudget int64
	env         map[string]any
	// probe describes the workload's main table to the layer probes.
	probe probeInput
	// layers holds layer metrics the set-up itself measured (fit time).
	layers map[string]metric
	// finish runs the workload's checks on final state after the last
	// operation (row counts, reopen); it reports through check and may add
	// layer metrics.
	finish func() (map[string]metric, error)

	attempted atomic.Int64
	failed    atomic.Int64
	firstFail atomic.Value // string
}

// check counts one checked operation; what describes it if it failed.
func (in *instance) check(ok bool, what string) {
	in.attempted.Add(1)
	if !ok {
		in.failed.Add(1)
		in.firstFail.CompareAndSwap(nil, what)
	}
}

// newInstance wraps an engine, points its parallelism at every processor
// and gives the decoded-chunk cache the workload's budget. The cache is
// process-wide, so it is emptied first of whatever earlier set-ups left.
func newInstance(eng *datalaws.Engine, cacheBudget int64) *instance {
	in := &instance{eng: eng, parallelism: runtime.NumCPU(), cacheBudget: cacheBudget}
	eng.SetParallelism(in.parallelism)
	eng.SetChunkCacheBudget(0)
	eng.SetChunkCacheBudget(cacheBudget)
	return in
}

// host starts a server over eng on a loopback port.
func host(eng *datalaws.Engine) (*server.Server, error) {
	srv := server.New(eng, &server.Config{Logf: func(string, ...any) {}})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return srv, nil
}

// connect dials one session and prepares the classes its cycle names.
func (in *instance) connect(seed int64, cycle []int) (*session, error) {
	cli, err := server.Dial(in.srv.Addr())
	if err != nil {
		return nil, err
	}
	s := &session{
		cli: cli, cycle: cycle, rng: rand.New(rand.NewSource(seed)),
		stmts: make([]*server.Stmt, len(in.classes)),
		lat:   make([][]float64, len(in.classes)),
		order: make([]int, len(cycle)),
	}
	for _, ci := range cycle {
		if s.stmts[ci] != nil {
			continue
		}
		if s.stmts[ci], err = cli.Prepare(in.classes[ci].sql); err != nil {
			_ = cli.Close()
			return nil, fmt.Errorf("prepare %s: %w", in.classes[ci].name, err)
		}
	}
	in.sessions = append(in.sessions, s)
	return s, nil
}

// close releases everything the set-up started and waits for it to stop.
func (in *instance) close() {
	for _, s := range in.sessions {
		_ = s.cli.Close()
	}
	if in.srv != nil {
		_ = in.srv.Close()
	}
	if in.eng != nil {
		_ = in.eng.Close()
	}
}

// do sends one operation of class ci and checks its answer. An error, a
// wrong answer, or an APPROX answer that took the exact-fallback route is a
// failed operation.
func (in *instance) do(s *session, ci int, timed bool) {
	c := in.classes[ci]
	op := c.next(s.rng)
	start := time.Now()
	err := wireExec(s.stmts[ci], c, op.args, &s.ans)
	took := time.Since(start)
	in.verify(c, op, &s.ans, err)
	if timed {
		s.note(ci, took, c)
	}
}

// note books one timed wire operation of class ci.
func (s *session) note(ci int, took time.Duration, c *class) {
	s.lat[ci] = append(s.lat[ci], float64(took.Nanoseconds())/1e3)
	s.ops++
	s.rows += s.ans.n + c.rowsIn
}

// verify checks one answer. The failure text is built only on failure:
// this runs inside the timed phase, once per operation.
func (in *instance) verify(c *class, op operation, a *answer, err error) {
	switch {
	case err != nil:
		in.check(false, fmt.Sprintf("%s: %v", c.name, err))
	case a.fallback:
		in.check(false, fmt.Sprintf("%s%v: answered by the exact fallback", c.name, op.args))
	case !op.check(a):
		in.check(false, fmt.Sprintf("%s%v: answer disagrees with the reference", c.name, op.args))
	default:
		in.check(true, "")
	}
}

// runFor drives one session's schedule until d has passed and the round in
// progress is finished.
func (in *instance) runFor(s *session, d time.Duration, timed bool, each func(s *session, ci int)) {
	start := time.Now()
	deadline := start.Add(d)
	for {
		copy(s.order, s.cycle)
		s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
		for _, ci := range s.order {
			if each != nil {
				each(s, ci)
			} else {
				in.do(s, ci, timed)
			}
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	if timed {
		s.elapsed = time.Since(start)
	}
}

// drive runs every session concurrently for d.
func (in *instance) drive(d time.Duration, timed bool, each func(s *session, ci int)) {
	var wg sync.WaitGroup
	for _, s := range in.sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			in.runFor(s, d, timed, each)
		}(s)
	}
	wg.Wait()
}

// endToEnd is what a user of the served system would see from one timed
// phase, plus the per-class breakdown kept in the detail record.
type endToEnd struct {
	metrics map[string]metric
	classes map[string]map[string]metric
	ops     int
}

// measure warms the instance up for a tenth of the run, then times it.
// Warm-up lets the plan caches and the decoded-chunk cache fill; users do
// not pay that on every statement, so it is not in the medians.
func (in *instance) measure(seconds float64, each func(s *session, ci int)) endToEnd {
	d := time.Duration(seconds * float64(time.Second))
	in.drive(d/10, false, nil)
	table.ResetCacheStats()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in.drive(d, true, each)
	runtime.ReadMemStats(&after)

	var all []float64
	var rate, rowRate float64
	ops := 0
	perClass := make([][]float64, len(in.classes))
	for _, s := range in.sessions {
		rate += float64(s.ops) / s.elapsed.Seconds()
		rowRate += float64(s.rows) / s.elapsed.Seconds()
		ops += s.ops
		for ci, l := range s.lat {
			all = append(all, l...)
			perClass[ci] = append(perClass[ci], l...)
		}
	}
	e := endToEnd{ops: ops, classes: map[string]map[string]metric{}}
	e.metrics = map[string]metric{
		"ops_per_s":     {rate, "1/s"},
		"p50_us":        {median(all), "us"},
		"allocs_per_op": {float64(after.Mallocs-before.Mallocs) / float64(ops), "count"},
		"rows_per_s":    {rowRate, "1/s"},
		"samples":       {float64(len(all)), "count"},
	}
	addTail(e.metrics, all)
	for ci, l := range perClass {
		if len(l) == 0 {
			continue
		}
		m := map[string]metric{
			"p50_us":  {median(l), "us"},
			"samples": {float64(len(l)), "count"},
		}
		addTail(m, l)
		e.classes[in.classes[ci].name] = m
	}
	return e
}

// addTail reports the highest percentile the sample supports, and which
// one it is; a sample too small for any tail reports its median as the
// 50th percentile, which says so.
func addTail(m map[string]metric, lat []float64) {
	p, ok := supportedTail(len(lat))
	if !ok {
		p = 50
	}
	m["tail_us"] = metric{percentile(sorted(lat), p), "us"}
	m["tail_pct"] = metric{p, "%"}
}

// tracedRun is the state of the traced phase. Each operation is the wire
// round trip as the root span, then paired calls into each layer with the
// same statement and arguments, each recorded as a child of the span whose
// time it accounts for.
type tracedRun struct {
	in    *instance
	tr    *tracer
	stmts []*datalaws.Stmt // in-process statements by class
	asts  []sql.Stmt       // parsed statements by class
	preps []*aqp.Prepared  // APPROX templates by class (nil otherwise)

	cacheMu sync.Mutex
	cache   table.ChunkCacheStats // deltas around wire operations only
	// primaryRows is the row count of the primary class's latest answer.
	primaryRows atomic.Int64
}

func newTracedRun(in *instance, tr *tracer) (*tracedRun, error) {
	t := &tracedRun{in: in, tr: tr}
	for _, c := range in.classes {
		st, err := in.eng.Prepare(c.sql)
		if err != nil {
			return nil, err
		}
		ast, err := sql.Parse(c.sql)
		if err != nil {
			return nil, err
		}
		var prep *aqp.Prepared
		if sel, ok := ast.(*sql.SelectStmt); ok && sel.Approx {
			if prep, err = aqp.PrepareApproxSelect(in.eng.Catalog, in.eng.Models, sel, in.eng.AQPOptions()); err != nil {
				return nil, err
			}
		}
		t.stmts, t.asts, t.preps = append(t.stmts, st), append(t.asts, ast), append(t.preps, prep)
	}
	return t, nil
}

func (t *tracedRun) each(s *session, ci int) {
	in, c := t.in, t.in.classes[ci]
	op := c.next(s.rng)
	id := t.tr.newOp()

	before := table.CacheStats()
	start := time.Now()
	err := wireExec(s.stmts[ci], c, op.args, &s.ans)
	end := time.Now()
	after := table.CacheStats()
	root := t.tr.record("client.op", c.name, 0, id, start, end)
	in.verify(c, op, &s.ans, err)
	if ci == in.primary {
		t.primaryRows.Store(int64(s.ans.n))
	}
	s.note(ci, end.Sub(start), c)
	t.cacheMu.Lock()
	t.cache.Hits += after.Hits - before.Hits
	t.cache.Misses += after.Misses - before.Misses
	t.cache.Evictions += after.Evictions - before.Evictions
	t.cacheMu.Unlock()

	start = time.Now()
	err = s.cli.Ping()
	t.tr.record("wire.ping", c.name, root, id, start, time.Now())
	in.check(err == nil, "ping failed")

	start = time.Now()
	err = engineExec(t.stmts[ci], c, op.args, &s.replay)
	eng := t.tr.record("engine.stmt", c.name, root, id, start, time.Now())
	in.verify(c, op, &s.replay, err)

	vals := boxArgs(op.args)
	start = time.Now()
	bound, err := sql.BindPrepared(t.asts[ci], vals, len(vals))
	t.tr.record("sql.bind", c.name, eng, id, start, time.Now())
	in.check(err == nil, "sql.BindPrepared failed")
	if prep := t.preps[ci]; prep != nil && err == nil {
		start = time.Now()
		_, err = prep.Bind(bound.(*sql.SelectStmt))
		t.tr.record("aqp.bind", c.name, eng, id, start, time.Now())
		in.check(err == nil, "aqp Prepared.Bind failed")
	}
}
