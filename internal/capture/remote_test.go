package capture_test

// The Figure 2 workflow against a real engine over the session protocol: a
// strawman whose Backend is a *server.Client, served by server.Server —
// the same server SQL clients and replicas talk to.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"datalaws"
	"datalaws/internal/capture"
	"datalaws/internal/modelstore"
	"datalaws/internal/server"
	"datalaws/internal/synth"
	"datalaws/internal/wireerr"
)

const powerLaw = "intensity ~ p * pow(nu, alpha)"

func powerLawOpts(where string) *capture.FitOptions {
	return &capture.FitOptions{GroupBy: "source", Start: map[string]float64{"p": 1, "alpha": -1}, Where: where}
}

// serveEngine starts a server over eng on an ephemeral port.
func serveEngine(t *testing.T, eng *datalaws.Engine) *server.Server {
	t.Helper()
	srv := server.New(eng, &server.Config{Logf: t.Logf})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// serveLOFAR serves an engine holding a synthetic LOFAR measurements table.
func serveLOFAR(t *testing.T, sources int) (*datalaws.Engine, *server.Server, *synth.LOFARData) {
	t.Helper()
	d := synth.GenerateLOFAR(synth.LOFARConfig{Sources: sources, ObsPerSource: 40, NoiseFrac: 0.03, Seed: 61})
	tb, err := synth.LOFARTable("measurements", d)
	if err != nil {
		t.Fatal(err)
	}
	eng := datalaws.NewEngine()
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	return eng, serveEngine(t, eng), d
}

func dial(t *testing.T, srv *server.Server) *server.Client {
	t.Helper()
	cli, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return cli
}

// TestWireRoundTrip runs the five Figure 2 steps over TCP and checks each
// against the engine and the generator's truth.
func TestWireRoundTrip(t *testing.T) {
	eng, srv, d := serveLOFAR(t, 12)
	cli := dial(t, srv)

	// (1) The strawman looks like the remote table.
	s, err := capture.NewStrawman(cli, "measurements")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != len(d.Source) || !reflect.DeepEqual(s.Columns(), []string{"source", "nu", "intensity"}) {
		t.Fatalf("strawman shape = %v, %d rows", s.Columns(), s.NumRows())
	}
	// (2–3) The fit is offloaded; the WHERE reaches the engine, so only the
	// matching rows are fitted, and the summary is the captured model's.
	sum, err := s.Fit("spectra", powerLaw, []string{"nu"}, powerLawOpts("nu > 0.13"))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := eng.Models.Get("spectra")
	if !ok {
		t.Fatal("fit was not captured server-side")
	}
	if want := capture.SummaryFromModel(m); !reflect.DeepEqual(sum, want) {
		t.Fatalf("summary over the wire = %+v, engine's = %+v", sum, want)
	}
	if sum.Groups != 12 || sum.MedianR2 < 0.8 || sum.ModelVersion != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	fitted := 0
	for _, g := range m.Groups {
		fitted += g.N
	}
	kept := eng.MustExec("SELECT count(*) FROM measurements WHERE nu > 0.13").Rows[0][0].I
	if int64(fitted) != kept || fitted >= len(d.Source) {
		t.Fatalf("fitted %d rows, WHERE keeps %d of %d", fitted, kept, len(d.Source))
	}
	// (4–5) A point answered from the model, bracketing the truth.
	ans, err := s.Point("spectra", 7, []float64{0.16}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	local, err := eng.ApproxPoint("spectra", 7, []float64{0.16}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ans != local {
		t.Fatalf("point over the wire = %+v, in process = %+v", ans, local)
	}
	truth := d.Truth[7].P * math.Pow(0.16, d.Truth[7].Alpha)
	if !(ans.Lo < truth && truth < ans.Hi) || !ans.FromModel || ans.ModelName != "spectra" {
		t.Fatalf("answer %+v does not bracket truth %g", ans, truth)
	}
}

// TestWirePointNaNLevel: a NaN level used to pass both range tests and come
// back as a NaN interval with no error; it takes the 95% default instead.
func TestWirePointNaNLevel(t *testing.T) {
	_, srv, _ := serveLOFAR(t, 6)
	cli := dial(t, srv)
	if _, err := cli.FitModel(modelstore.Spec{Name: "spectra", Table: "measurements", Formula: powerLaw,
		Inputs: []string{"nu"}, GroupBy: "source", Start: map[string]float64{"p": 1, "alpha": -1}}); err != nil {
		t.Fatal(err)
	}
	want, err := cli.ApproxPoint("spectra", 1, []float64{0.16}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cli.ApproxPoint("spectra", 1, []float64{0.16}, math.NaN())
	if err != nil || got != want {
		t.Fatalf("NaN level = %+v, %v; want the 95%% answer %+v", got, err, want)
	}
}

// partitionedEngine builds table m partitioned by range on source (p0 below
// 100, p1 below 200, p2 the rest) with a noisy linear law per source.
func partitionedEngine(t *testing.T) *datalaws.Engine {
	t.Helper()
	eng := datalaws.NewEngine()
	eng.MustExec(`CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE) PARTITION BY RANGE(source) (
		PARTITION p0 VALUES LESS THAN (100), PARTITION p1 VALUES LESS THAN (200),
		PARTITION p2 VALUES LESS THAN (MAXVALUE))`)
	var vals []string
	for s := 0; s < 300; s += 25 {
		for i := 1; i <= 8; i++ {
			nu := 0.5 * float64(i)
			noise := 0.01 * float64((s+i)%3-1)
			vals = append(vals, fmt.Sprintf("(%d, %g, %g)", s, nu, float64(2+s%7)*nu+float64(s%13)+noise))
		}
	}
	eng.MustExec("INSERT INTO m VALUES " + strings.Join(vals, ", "))
	return eng
}

// TestWirePointOnPartitionedFamily: a fit on a partitioned table returns a
// summary named for the family, and a point of that name used to fail with
// "model not found" because only its members exist. It now routes to the
// member holding the point, on the partition column.
func TestWirePointOnPartitionedFamily(t *testing.T) {
	eng := partitionedEngine(t)
	cli := dial(t, serveEngine(t, eng))
	s, err := capture.NewStrawman(cli, "m")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Fit("fam", "intensity ~ a * nu + b", []string{"nu"},
		&capture.FitOptions{GroupBy: "source", Start: map[string]float64{"a": 1, "b": 0}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Name != "fam" || sum.Groups != 12 || sum.MedianR2 < 0.99 {
		t.Fatalf("family summary = %+v", sum)
	}
	ans, err := s.Point("fam", 125, []float64{1.5}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	member, err := eng.ApproxPoint("fam#p1", 125, []float64{1.5}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ans != member || ans.ModelName != "fam#p1" {
		t.Fatalf("family point = %+v, member p1 = %+v", ans, member)
	}
	if want := float64(2+125%7)*1.5 + float64(125%13); math.Abs(ans.Value-want) > 0.05 {
		t.Fatalf("family point %g, law says %g", ans.Value, want)
	}
}

// TestWireErrorsPropagate: engine errors reach the strawman with their
// messages, as clean request failures.
func TestWireErrorsPropagate(t *testing.T) {
	_, srv, _ := serveLOFAR(t, 3)
	cli := dial(t, srv)
	if _, err := capture.NewStrawman(cli, "nope"); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("err = %v", err)
	}
	s, err := capture.NewStrawman(cli, "measurements")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fit("bad", "intensity ~ p * pow(nu, alpha)", []string{"nope"}, nil); err == nil {
		t.Fatal("want an error fitting on a missing input column")
	}
	if _, err := s.Point("nomodel", 1, []float64{1}, 0.95); err == nil {
		t.Fatal("want model error")
	}
}

// TestSentinelErrorsSurviveTheWire: errors.Is against the engine's
// sentinels works for a remote strawman as it does in process, and a
// request error leaves the session usable.
func TestSentinelErrorsSurviveTheWire(t *testing.T) {
	eng := datalaws.NewEngine()
	// Partitioned on the input nu; p_hi holds one row, too few for a
	// two-parameter fit, so the family has no member there.
	eng.MustExec(`CREATE TABLE q (nu DOUBLE, y DOUBLE) PARTITION BY RANGE(nu) (
		PARTITION p_lo VALUES LESS THAN (10), PARTITION p_hi VALUES LESS THAN (MAXVALUE))`)
	eng.MustExec("INSERT INTO q VALUES (1, 3.1), (2, 5.0), (3, 6.9), (4, 9.1), (20, 41)")
	cli := dial(t, serveEngine(t, eng))
	if _, err := cli.FitModel(modelstore.Spec{Name: "lin", Table: "q", Formula: "y ~ a * nu + b",
		Inputs: []string{"nu"}, Start: map[string]float64{"a": 1, "b": 0}}); err != nil {
		t.Fatal(err)
	}
	healthy := func() {
		t.Helper()
		if _, _, err := cli.TableInfo("q"); err != nil {
			t.Fatalf("session unusable after a request error: %v", err)
		}
	}
	_, _, err := cli.TableInfo("nope")
	if !errors.Is(err, datalaws.ErrUnknownTable) || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("unknown-table sentinel or message lost in transit: %v", err)
	}
	healthy()
	if _, err := cli.ApproxPoint("ghost", 1, []float64{1}, 0.95); !errors.Is(err, datalaws.ErrUnknownModel) {
		t.Fatalf("unknown-model sentinel lost in transit: %v", err)
	}
	healthy()
	if _, err := cli.ApproxPoint("lin", 0, []float64{30}, 0.95); !errors.Is(err, datalaws.ErrNoModel) {
		t.Fatalf("no-model sentinel lost in transit: %v", err)
	}
	healthy()
	if ans, err := cli.ApproxPoint("lin", 0, []float64{2.5}, 0.95); err != nil || ans.ModelName != "lin#p_lo" {
		t.Fatalf("point in the fitted partition = %+v, %v", ans, err)
	}
}

// TestServerCapsOversizedRequests: a point request past the input cap is a
// bad request refused before the engine runs (the engine would have named
// the input-count mismatch), and the session stays usable.
func TestServerCapsOversizedRequests(t *testing.T) {
	_, srv, _ := serveLOFAR(t, 3)
	cli := dial(t, srv)
	if _, err := cli.FitModel(modelstore.Spec{Name: "spectra", Table: "measurements", Formula: powerLaw,
		Inputs: []string{"nu"}, GroupBy: "source", Start: map[string]float64{"p": 1, "alpha": -1}}); err != nil {
		t.Fatal(err)
	}
	_, err := cli.ApproxPoint("spectra", 1, make([]float64, 4097), 0.95)
	if !errors.Is(err, wireerr.ErrBadRequest) || strings.Contains(err.Error(), "inputs, model has") {
		t.Fatalf("oversized point = %v, want ErrBadRequest from the server", err)
	}
	if _, err := cli.ApproxPoint("spectra", 1, []float64{0.14}, 0.95); err != nil {
		t.Fatalf("session unusable after an oversized request: %v", err)
	}
	// A spec that cannot be rendered as SQL is refused on the client.
	before := srv.Metrics().Queries()
	_, err = cli.FitModel(modelstore.Spec{Name: "inf", Table: "measurements", Formula: powerLaw,
		Inputs: []string{"nu"}, Start: map[string]float64{"p": math.Inf(1)}})
	if !errors.Is(err, wireerr.ErrBadRequest) || srv.Metrics().Queries() != before {
		t.Fatalf("non-finite START = %v after %d server queries, want a client-side ErrBadRequest",
			err, srv.Metrics().Queries()-before)
	}
}

// TestWireConcurrentClients runs 8 strawman sessions × 20 calls against one
// server; meant for -race.
func TestWireConcurrentClients(t *testing.T) {
	_, srv, _ := serveLOFAR(t, 20)
	if _, err := capture.NewStrawman(dial(t, srv), "measurements"); err != nil {
		t.Fatal(err)
	}
	if _, err := dial(t, srv).FitModel(modelstore.Spec{Name: "spectra", Table: "measurements", Formula: powerLaw,
		Inputs: []string{"nu"}, GroupBy: "source", Start: map[string]float64{"p": 1, "alpha": -1}}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := server.Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = cli.Close() }()
			s, err := capture.NewStrawman(cli, "measurements")
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 20; j++ {
				if err := s.Refresh(); err != nil {
					errs <- err
					return
				}
				if _, err := s.Point("spectra", int64(j%20+1), []float64{0.14}, 0.9); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := srv.Metrics().Errors(); n != 0 {
		t.Fatalf("server recorded %d request errors", n)
	}
}

// TestWireSessionMetricsAndShutdown: a strawman session is an ordinary
// server session — counted in /metrics, its point answers on the APPROX
// route, and closed by a graceful Shutdown.
func TestWireSessionMetricsAndShutdown(t *testing.T) {
	_, srv, _ := serveLOFAR(t, 4)
	s, err := capture.NewStrawman(dial(t, srv), "measurements")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fit("spectra", powerLaw, []string{"nu"}, powerLawOpts("")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Point("spectra", 2, []float64{0.14}, 0.95); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	// Two table-info calls (wrap, and Fit's refresh) on the "other" route;
	// the FIT MODEL statement, which names its model, and the point on the
	// APPROX route.
	for _, want := range []string{"datalaws_sessions_active 1", "datalaws_queries_total 4",
		"datalaws_route_other_total 2", "datalaws_route_approx_total 2"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, rec.Body.String())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if n := srv.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions alive after Shutdown", n)
	}
	if _, err := s.Point("spectra", 2, []float64{0.14}, 0.95); err == nil {
		t.Fatal("strawman still answered after Shutdown")
	}
}

// TestWireDrainRefusesStrawmanCalls: while the server drains, a session
// kept open by an in-flight cursor is refused new strawman work with
// ErrDraining, like new queries, and Shutdown completes once the cursor does.
func TestWireDrainRefusesStrawmanCalls(t *testing.T) {
	_, srv, _ := serveLOFAR(t, 4)
	cli := dial(t, srv)
	cli.FetchRows = 8
	rows, err := cli.Query("SELECT source FROM measurements")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for _, _, err = cli.TableInfo("measurements"); !errors.Is(err, wireerr.ErrDraining); _, _, err = cli.TableInfo("measurements") {
		if time.Now().After(deadline) {
			t.Fatalf("table info during drain = %v, want ErrDraining", err)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cli.ApproxPoint("spectra", 1, []float64{0.14}, 0.95); !errors.Is(err, wireerr.ErrDraining) {
		t.Fatalf("point during drain = %v, want ErrDraining", err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("drain interrupted the in-flight cursor: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

// TestDialFailure: nothing listening is a dial error, not a strawman.
func TestDialFailure(t *testing.T) {
	if _, err := server.Dial("127.0.0.1:1"); err == nil {
		t.Fatal("want connection error")
	}
}
