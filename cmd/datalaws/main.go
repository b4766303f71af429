// Command datalaws is an interactive SQL shell over the model-harvesting
// engine. It supports the full statement set — SELECT, APPROX SELECT ...
// WITH ERROR, CREATE TABLE, DROP TABLE, INSERT, FIT MODEL, SHOW MODELS,
// REFIT MODEL, DROP MODEL — plus shell commands:
//
//	\load lofar|sensors|retail   load a synthetic dataset
//	\import NAME FILE.csv        load a CSV file as table NAME
//	\tables                      list tables, partitioned ones with ranges
//	\save DIR                    persist tables and models (crash-safe)
//	\restore DIR                 load a saved directory
//	\wal                         write-ahead-log status (needs -data)
//	\checkpoint                  compact the WAL into a fresh snapshot (needs -data)
//	\autorefit on|off            background drift detection + model refit
//	\parallelism N               morsel worker pool size (0 = GOMAXPROCS, 1 = serial)
//	\serve ADDR                  serve the engine's session protocol (SQL clients, strawman sessions, replicas)
//	\q                           quit
//
// With -data DIR the shell opens a durable engine: the previous state is
// recovered from DIR (snapshot + WAL replay) and every mutation is written
// ahead to the log before it is applied, so a crash or kill loses nothing
// that was acknowledged.
//
// Statements run through the engine's streaming Query API: rows print as
// the executor produces them, and Ctrl-C cancels the in-flight statement
// (via its context) without leaving the shell.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	datalaws "datalaws"
	"datalaws/internal/expr"
	"datalaws/internal/refit"
	"datalaws/internal/server"
	"datalaws/internal/synth"
	"datalaws/internal/table"
	"datalaws/internal/wal"
)

func main() {
	dataDir := flag.String("data", "", "durable data directory: recover from it and write-ahead-log every mutation")
	flag.Parse()
	var eng *datalaws.Engine
	if *dataDir != "" {
		var err error
		eng, err = datalaws.Open(*dataDir, wal.Config{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		st, _ := eng.WALStats()
		fmt.Printf("recovered from %s: %d table(s), %d model(s), %d wal record(s) replayed\n",
			*dataDir, len(eng.Catalog.Names()), len(eng.Models.List()), st.Replayed)
	} else {
		eng = datalaws.NewEngine()
	}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("datalaws — capturing the laws of (data) nature. \\q to quit, Ctrl-C cancels a running statement.")
	// SIGINT is owned by the shell for its whole lifetime: during a
	// statement it cancels that statement's context; at the prompt it is
	// ignored, so a reflexive second Ctrl-C never kills the session.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	var srv *server.Server
	defer func() {
		if srv != nil {
			srv.Close()
		}
		eng.Close()
	}()
	for {
		fmt.Print("datalaws> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if line == "\\q" || line == "\\quit" {
				return
			}
			if err := shellCommand(eng, line, &srv); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			continue
		}
		runStatement(eng, line, sig)
	}
}

// runStatement executes one SQL statement on the streaming session API,
// printing rows as they arrive. SIGINT cancels the statement's context, so
// a long scan stops mid-flight instead of killing the shell.
func runStatement(eng *datalaws.Engine, line string, sig <-chan os.Signal) {
	// Discard any interrupt delivered while the shell sat at the prompt, so
	// a stale Ctrl-C never cancels the statement that follows it.
	select {
	case <-sig:
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
			cancel()
		case <-done:
		}
	}()
	start := time.Now()
	rows, err := eng.Query(ctx, line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	defer rows.Close()
	if rows.Info != "" {
		fmt.Println(rows.Info)
	}
	n := 0
	cols := rows.Columns()
	if len(cols) > 0 {
		fmt.Println(strings.Join(cols, "  "))
		for rows.Next() {
			fmt.Println(renderRow(rows.Row()))
			n++
		}
	}
	if err := rows.Err(); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "canceled after %d rows\n", n)
			return
		}
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	// FIT MODEL names its model too, but has no grid: only APPROX plans do.
	if rows.Model != "" && rows.ApproxGrid > 0 {
		fmt.Printf("(answered from model %q, grid %d rows", rows.Model, rows.ApproxGrid)
		if rows.Hybrid {
			fmt.Print(", hybrid")
		}
		fmt.Println(")")
	}
	fmt.Printf("(%d rows, %v)\n", n, time.Since(start).Round(time.Microsecond))
}

func renderRow(row []expr.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		switch v.K {
		case expr.KindString:
			parts[i] = v.S
		case expr.KindFloat:
			parts[i] = fmt.Sprintf("%.6g", v.F)
		default:
			parts[i] = v.String()
		}
	}
	return strings.Join(parts, "  ")
}

func shellCommand(eng *datalaws.Engine, line string, srv **server.Server) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\load":
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\load lofar|sensors|retail")
		}
		return loadDataset(eng, fields[1])
	case "\\import":
		if len(fields) != 3 {
			return fmt.Errorf("usage: \\import NAME FILE.csv")
		}
		f, err := os.Open(fields[2])
		if err != nil {
			return err
		}
		defer f.Close()
		t, err := table.ReadCSV(fields[1], f)
		if err != nil {
			return err
		}
		if err := eng.RegisterTable(t); err != nil {
			return err
		}
		fmt.Printf("imported %d rows into %s\n", t.NumRows(), fields[1])
		return nil
	case "\\save":
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\save DIR")
		}
		if err := eng.SaveDir(fields[1]); err != nil {
			return err
		}
		fmt.Printf("saved %d table(s) and %d model(s) to %s\n",
			len(eng.Catalog.Names()), len(eng.Models.List()), fields[1])
		return nil
	case "\\restore":
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\restore DIR")
		}
		if err := eng.LoadDir(fields[1]); err != nil {
			return err
		}
		fmt.Printf("restored from %s: %d table(s), %d model(s)\n",
			fields[1], len(eng.Catalog.Names()), len(eng.Models.List()))
		return nil
	case "\\wal":
		if len(fields) != 1 {
			return fmt.Errorf("usage: \\wal")
		}
		st, ok := eng.WALStats()
		if !ok {
			return fmt.Errorf("no write-ahead log attached (start with -data DIR)")
		}
		fmt.Printf("segment %d (%d live, %d bytes)\n", st.Segment, st.Segments, st.SegmentBytes)
		fmt.Printf("records %d in %d commit group(s), %d fsync(s)\n", st.Records, st.Groups, st.Syncs)
		fmt.Printf("recovery replayed %d record(s)", st.Replayed)
		if st.Truncated {
			fmt.Print(" (torn tail truncated)")
		}
		fmt.Println()
		if st.Err != "" {
			fmt.Printf("log POISONED: %s\n", st.Err)
		}
		return nil
	case "\\checkpoint":
		if len(fields) != 1 {
			return fmt.Errorf("usage: \\checkpoint")
		}
		if err := eng.Checkpoint(); err != nil {
			return err
		}
		st, _ := eng.WALStats()
		fmt.Printf("checkpointed: snapshot written, wal resumes at segment %d\n", st.Segment)
		return nil
	case "\\autorefit":
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			return fmt.Errorf("usage: \\autorefit on|off")
		}
		if fields[1] == "off" {
			eng.DisableAutoRefit()
			fmt.Println("auto-refit off")
			return nil
		}
		eng.EnableAutoRefit(refit.Options{
			Interval: 5 * time.Second,
			OnEvent: func(ev refit.Event) {
				if ev.Err != nil {
					fmt.Fprintf(os.Stderr, "\n[autorefit] %s refit failed: %v\n", ev.Model, ev.Err)
					return
				}
				fmt.Printf("\n[autorefit] model %s v%d -> v%d (%s trigger, %v)\ndatalaws> ",
					ev.Model, ev.OldVersion, ev.NewVersion, ev.Trigger, ev.Took.Round(time.Millisecond))
			},
		})
		fmt.Println("auto-refit on: drifted or outgrown models re-fit in the background")
		return nil
	case "\\parallelism":
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\parallelism N (0 = GOMAXPROCS, 1 = serial)")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return fmt.Errorf("usage: \\parallelism N (0 = GOMAXPROCS, 1 = serial)")
		}
		eng.SetParallelism(n)
		workers := n
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		fmt.Printf("parallelism set to %d worker(s) for scans, aggregation and model fitting\n", workers)
		return nil
	case "\\tables":
		if len(fields) != 1 {
			return fmt.Errorf("usage: \\tables")
		}
		names := eng.Catalog.PartitionedNames()
		sort.Strings(names)
		shown := map[string]bool{}
		for _, name := range names {
			pt, ok := eng.Catalog.GetPartitioned(name)
			if !ok {
				continue
			}
			fmt.Printf("%s  (%d rows, partitioned by range(%s))\n", name, pt.NumRows(), pt.Column())
			for i, r := range pt.Ranges() {
				child := pt.Part(i)
				shown[child.Name] = true
				bound := fmt.Sprintf("less than %g", r.Upper)
				if r.Max {
					bound = "less than MAXVALUE"
				}
				fmt.Printf("  partition %s  values %s  (%d rows)\n", r.Name, bound, child.NumRows())
			}
		}
		plain := eng.Catalog.Names()
		sort.Strings(plain)
		for _, name := range plain {
			if shown[name] {
				continue
			}
			if t, ok := eng.Catalog.Get(name); ok {
				fmt.Printf("%s  (%d rows)\n", name, t.NumRows())
			}
		}
		return nil
	case "\\serve":
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\serve ADDR (e.g. 127.0.0.1:7799)")
		}
		if *srv != nil {
			(*srv).Close()
		}
		s := server.New(eng, nil)
		if err := s.Serve(fields[1]); err != nil {
			return err
		}
		*srv = s
		fmt.Printf("serving the session protocol on %s\n", s.Addr())
		return nil
	}
	return fmt.Errorf("unknown command %q", fields[0])
}

func loadDataset(eng *datalaws.Engine, which string) error {
	switch which {
	case "lofar":
		d := synth.GenerateLOFAR(synth.LOFARConfig{
			Sources: 2000, ObsPerSource: 40, NoiseFrac: 0.05, AnomalyFrac: 0.01, Seed: 1,
		})
		t, err := synth.LOFARTable("measurements", d)
		if err != nil {
			return err
		}
		if err := eng.RegisterTable(t); err != nil {
			return err
		}
		fmt.Printf("loaded %d measurements from %d sources into table measurements\n", t.NumRows(), 2000)
	case "sensors":
		d := synth.GenerateSensors(synth.DefaultSensors())
		t, err := synth.SensorTable("readings", d)
		if err != nil {
			return err
		}
		if err := eng.RegisterTable(t); err != nil {
			return err
		}
		fmt.Printf("loaded %d readings into table readings\n", t.NumRows())
	case "retail":
		d := synth.GenerateRetail(synth.DefaultRetail())
		t, err := synth.RetailTable("sales", d)
		if err != nil {
			return err
		}
		if err := eng.RegisterTable(t); err != nil {
			return err
		}
		fmt.Printf("loaded %d sales rows into table sales\n", t.NumRows())
	default:
		return fmt.Errorf("unknown dataset %q", which)
	}
	return nil
}
