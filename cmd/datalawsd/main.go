// Command datalawsd serves a datalaws engine over the network: concurrent
// per-connection sessions on a framed TCP protocol (see internal/server),
// with prepared statements, streaming cursors, and an HTTP /metrics
// endpoint for operational visibility. This is the paper's deployment
// shape — one server capturing models over the measurement tables, many
// clients asking approximate questions over a thin wire.
//
//	datalawsd -listen 127.0.0.1:7744 -metrics 127.0.0.1:7745 \
//	          -data /var/lib/datalaws -autorefit -drain 10s
//
// SIGINT/SIGTERM drain gracefully: the listener closes, idle sessions are
// kicked, in-flight cursors finish under -drain, then the engine closes
// (flushing the WAL when -data is set).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"datalaws"
	"datalaws/internal/refit"
	"datalaws/internal/server"
	"datalaws/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("datalawsd", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7744", "TCP address for the query protocol")
	metricsAddr := fs.String("metrics", "127.0.0.1:7745", "HTTP address for /metrics and /healthz (empty disables)")
	dataDir := fs.String("data", "", "durable data directory (WAL + snapshots); empty runs in memory")
	initFile := fs.String("init", "", "SQL file executed at boot, one statement per line (# comments)")
	autorefit := fs.Bool("autorefit", false, "run the background drift/growth refitter")
	parallelism := fs.Int("parallelism", 0, "exact-scan worker pool size (0 = single-threaded)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight cursors")
	fetchRows := fs.Int("fetch-rows", server.DefaultFetchRows, "rows in a query's first batch when clients do not choose (each later pull doubles it)")
	portFile := fs.String("portfile", "", "write the bound query and metrics addresses here, one per line")
	replicaOf := fs.String("replica-of", "", "primary's query address; serve as a model-only read replica (excludes -data/-init/-autorefit)")
	lagInflate := fs.Float64("lag-inflate", 0.01, "replica SE widening per second of feed lag (with -replica-of)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	logf := log.New(os.Stderr, "datalawsd: ", log.LstdFlags).Printf

	// A replica's state is the primary's changefeed: it has no rows to
	// persist, no schema to bootstrap, nothing local to refit. Flags that
	// would give it independent state contradict the topology.
	if *replicaOf != "" {
		for flagName, set := range map[string]bool{
			"-data": *dataDir != "", "-init": *initFile != "", "-autorefit": *autorefit,
		} {
			if set {
				logf("%s cannot be combined with -replica-of: a replica holds models, not rows", flagName)
				return 2
			}
		}
	}

	var eng *datalaws.Engine
	var rep *server.Replicator
	var err error
	if *replicaOf != "" {
		eng, rep = server.OpenReplica(*replicaOf, &server.ReplicaConfig{
			LagInflate: *lagInflate,
			Logf:       logf,
		})
	} else {
		eng, err = openEngine(*dataDir)
		if err != nil {
			logf("open engine: %v", err)
			return 1
		}
	}
	defer func() {
		if err := eng.Close(); err != nil {
			logf("engine close: %v", err)
		}
	}()
	if *parallelism > 0 {
		eng.SetParallelism(*parallelism)
	}
	if *initFile != "" {
		n, err := runInitSQL(eng, *initFile)
		if err != nil {
			logf("init sql: %v", err)
			return 1
		}
		logf("init: executed %d statements from %s", n, *initFile)
	}

	srv := server.New(eng, &server.Config{FetchRows: *fetchRows, Logf: logf})
	if *autorefit {
		eng.EnableAutoRefit(refit.Options{
			Interval: 5 * time.Second,
			OnEvent:  srv.Metrics().RecordRefit,
		})
	}
	if rep != nil {
		rep.UseMetrics(srv.Metrics())
		rep.Start()
		defer rep.Stop()
	}
	if err := srv.Serve(*listen); err != nil {
		logf("%v", err)
		return 1
	}
	if rep != nil {
		logf("serving on %s (replica of %s)", srv.Addr(), *replicaOf)
	} else {
		logf("serving on %s (data=%s autorefit=%v)", srv.Addr(), orMemory(*dataDir), *autorefit)
	}

	var metricsLn net.Listener
	if *metricsAddr != "" {
		metricsLn, err = net.Listen("tcp", *metricsAddr)
		if err != nil {
			logf("metrics listen: %v", err)
			_ = srv.Close()
			return 1
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.Metrics().Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := hs.Serve(metricsLn); err != nil && err != http.ErrServerClosed {
				logf("metrics server: %v", err)
			}
		}()
		defer func() { _ = hs.Close() }()
		logf("metrics on http://%s/metrics", metricsLn.Addr())
	}

	if *portFile != "" {
		maddr := ""
		if metricsLn != nil {
			maddr = metricsLn.Addr().String()
		}
		if err := os.WriteFile(*portFile, []byte(srv.Addr()+"\n"+maddr+"\n"), 0o644); err != nil {
			logf("portfile: %v", err)
			_ = srv.Close()
			return 1
		}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	logf("got %v, draining (budget %v)", sig, *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logf("drain incomplete, sessions force-closed: %v", err)
	} else {
		logf("drained cleanly")
	}
	return 0
}

func openEngine(dir string) (*datalaws.Engine, error) {
	if dir == "" {
		return datalaws.NewEngine(), nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return datalaws.Open(dir, wal.Config{})
}

// runInitSQL executes a bootstrap script: one statement per line, blank
// lines and #-comments skipped. Errors abort the boot — a server with half
// a schema is worse than no server.
func runInitSQL(eng *datalaws.Engine, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		stmt := strings.TrimSpace(sc.Text())
		if stmt == "" || strings.HasPrefix(stmt, "#") {
			continue
		}
		if _, err := eng.ExecContext(context.Background(), stmt); err != nil {
			return n, fmt.Errorf("statement %d (%q): %w", n+1, stmt, err)
		}
		n++
	}
	return n, sc.Err()
}

func orMemory(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}
