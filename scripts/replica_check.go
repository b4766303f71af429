//go:build ignore

// replica_check probes a model-only replica for scripts/replica-smoke.sh:
// it waits for the model to replicate, asserts an APPROX point query
// answers with a sane WITH ERROR interval, and asserts exact and ingest
// statements are rejected with the replica_readonly sentinel. With
// -primary it then inserts the lawful row (2, 2.25, 11) into the primary,
// a frequency the fit never saw, and waits for the replica's legal set to
// admit it with no refit: the point query for it must answer within 10 s.
//
//	go run scripts/replica_check.go -replica 127.0.0.1:PORT [-primary 127.0.0.1:PORT]
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"datalaws/internal/server"
	"datalaws/internal/wireerr"
)

func main() {
	addr := flag.String("replica", "", "replica query address")
	primary := flag.String("primary", "", "primary query address; checks that an appended row reaches the replica's legal set")
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "replica_check: -replica is required")
		os.Exit(2)
	}
	err := check(*addr)
	if err == nil && *primary != "" {
		err = followsAppend(*primary, *addr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "replica_check: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("replica_check: OK")
}

func check(addr string) error {
	// The replica serves before its first sync completes.
	if err := retry(func() error { return pointAt(addr, 0.5) }); err != nil {
		return fmt.Errorf("model never became queryable: %w", err)
	}
	return readonly(addr)
}

// retry calls f every 100 ms until it succeeds or 10 s have passed.
func retry(f func() error) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := f()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// pointAt asks the replica for source 2's prediction at nu, which the law
// puts at (2+2)*nu + 2 exactly (the init data is noiseless).
func pointAt(addr string, nu float64) error {
	cli, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	rows, err := cli.Query(fmt.Sprintf(
		"APPROX SELECT intensity, intensity_lo, intensity_hi FROM m WHERE source = 2 AND nu = %g WITH ERROR", nu))
	if err != nil {
		return err
	}
	defer rows.Close()
	if !rows.Next() {
		return fmt.Errorf("point query at nu = %g returned no rows (err=%v)", nu, rows.Err())
	}
	var y, lo, hi float64
	if err := rows.Scan(&y, &lo, &hi); err != nil {
		return err
	}
	if hi < lo || y < lo || y > hi {
		return fmt.Errorf("malformed interval: y=%g [%g, %g]", y, lo, hi)
	}
	if want := 4*nu + 2; math.Abs(y-want) > 0.1 {
		return fmt.Errorf("prediction %g far from the law's %g", y, want)
	}
	if rows.Model == "" {
		return fmt.Errorf("answer did not come from a model")
	}
	return nil
}

// followsAppend inserts a row with a new frequency into the primary and
// waits for the replica to answer the point query on it.
func followsAppend(primary, replica string) error {
	cli, err := server.Dial(primary)
	if err != nil {
		return err
	}
	defer cli.Close()
	if _, err := cli.Exec("INSERT INTO m VALUES (2, 2.25, 11)"); err != nil {
		return fmt.Errorf("insert into the primary: %w", err)
	}
	if err := retry(func() error { return pointAt(replica, 2.25) }); err != nil {
		return fmt.Errorf("appended row never reached the replica's legal set: %w", err)
	}
	return nil
}

func readonly(addr string) error {
	cli, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	for _, stmt := range []string{
		"SELECT count(*) FROM m",
		"INSERT INTO m VALUES (9, 0.25, 1)",
	} {
		if _, err := cli.Exec(stmt); err == nil {
			return fmt.Errorf("%q succeeded on a replica", stmt)
		} else if !errors.Is(err, wireerr.ErrReplicaReadOnly) {
			return fmt.Errorf("%q: got %v, want replica_readonly", stmt, err)
		}
	}
	return nil
}
