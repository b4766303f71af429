package datalaws

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"datalaws/internal/modelstore"
	"datalaws/internal/wal"
	"datalaws/internal/wireerr"
)

// Durability wiring. A WAL-attached engine logs every mutation — appends
// (programmatic Append/CopyFrom and SQL INSERT) and logical DDL (CREATE/DROP
// TABLE, FIT/REFIT/DROP MODEL) — to the write-ahead log before applying it
// in memory, and acks only after the record's commit group is fsynced.
// Recovery is snapshot + replay: Open loads the live snapshot, then
// re-executes the log from the snapshot's checkpoint segment onward.
//
// Two mutation classes stay outside the log deliberately: background
// auto-refit results (derived data — after recovery the drift detector
// re-accumulates evidence and refits again), and RegisterTable (externally
// built tables are the caller's to persist; SaveDir still snapshots them).

// Open builds a durable engine rooted at dir: it loads the live snapshot
// (if any), replays WAL segments from the snapshot's checkpoint onward —
// truncating the log at the first torn or corrupt record — and attaches the
// log so every subsequent mutation is group-committed to disk before it is
// applied. Close the engine to flush the log; SaveDir(dir) (or Checkpoint)
// compacts the log into a fresh snapshot.
func Open(dir string, cfg wal.Config) (*Engine, error) {
	e := NewEngine()
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		if err := e.LoadDir(dir); err != nil {
			return nil, err
		}
	} else if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	startSeg, ok, err := readCheckpointSeg(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		startSeg = 0
	}
	if err := e.AttachWAL(dir, startSeg, cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// AttachWAL opens (creating if needed) the write-ahead log in dir, replays
// its records from startSeg onward on top of the engine's current state,
// and routes every future mutation through it. Logical replay failures are
// warnings, not errors: a deterministic failure (a FIT that never
// converged, an append to a table dropped later in the log) reproduces the
// original outcome, and recovery must converge rather than refuse to start.
func (e *Engine) AttachWAL(dir string, startSeg int, cfg wal.Config) error {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	if e.walLog != nil {
		return errors.New("datalaws: wal already attached")
	}
	l, err := wal.Open(dir, startSeg, cfg, func(rec *wal.Record) error {
		if err := e.applyRecord(rec); err != nil {
			log.Printf("datalaws: wal replay: %s: %v", rec.Type, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.walLog = l
	e.walDir = dir
	return nil
}

// WALStats snapshots write-ahead-log activity; ok=false when no WAL is
// attached.
func (e *Engine) WALStats() (wal.Stats, bool) {
	e.walMu.RLock()
	defer e.walMu.RUnlock()
	if e.walLog == nil {
		return wal.Stats{}, false
	}
	return e.walLog.Stats(), true
}

// Checkpoint snapshots the engine into its WAL directory: the log rotates,
// the snapshot records where replay resumes, and pre-checkpoint segments
// are reclaimed once the snapshot is live.
func (e *Engine) Checkpoint() error {
	e.walMu.RLock()
	dir := e.walDir
	e.walMu.RUnlock()
	if dir == "" {
		return errors.New("datalaws: checkpoint: no wal attached")
	}
	return e.SaveDir(dir)
}

// mutate is the log-then-apply gate every mutation passes through: the
// record is appended to the WAL (blocking until its commit group is
// durable), and only then is the operation applied in memory. The shared
// mutation lock is held across both steps so a checkpoint (which takes it
// exclusively) can never snapshot an effect whose record postdates the
// checkpoint's WAL rotation — that record would replay on top of the
// snapshot and double-apply.
func (e *Engine) mutate(rec *wal.Record, apply func() (*Result, error)) (*Result, error) {
	// Every mutation funnels through here, so this one check makes a
	// replica read-only: its state is the primary's changefeed, never local
	// writes (which would silently diverge and be lost on resync).
	if e.IsReplica() {
		return nil, fmt.Errorf("datalaws: %w", wireerr.ErrReplicaReadOnly)
	}
	e.walMu.RLock()
	defer e.walMu.RUnlock()
	if e.walLog != nil {
		if err := e.walLog.Append(rec); err != nil {
			return nil, err
		}
	}
	return apply()
}

// checkpointBegin runs under the exclusive mutation lock taken by SaveDir.
// When dir is the WAL's own directory the snapshot doubles as a
// checkpoint: the log rotates so the snapshot can record the first segment
// recovery must replay, and the returned reclaim drops the now-redundant
// older segments once the snapshot is live. Saves to other directories are
// plain exports: seg = -1, reclaim = nil.
func (e *Engine) checkpointBegin(dir string) (int, func(), error) {
	l := e.walLog
	if l == nil || !sameDir(dir, e.walDir) {
		return -1, nil, nil
	}
	seg, err := l.Rotate()
	if err != nil {
		return -1, nil, fmt.Errorf("datalaws: checkpoint: rotating wal: %w", err)
	}
	reclaim := func() {
		if err := l.ReclaimBelow(seg); err != nil {
			log.Printf("datalaws: checkpoint: reclaiming wal segments below %d: %v", seg, err)
		}
	}
	return seg, reclaim, nil
}

func sameDir(a, b string) bool {
	if a == b {
		return true
	}
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}

// applyRecord re-executes one logical WAL record against the engine —
// recovery's dispatch. Each case routes to the same apply function the live
// mutation paths use, so replayed state matches the original execution
// record for record.
func (e *Engine) applyRecord(rec *wal.Record) error {
	switch rec.Type {
	case wal.TypeAppend:
		_, err := e.applyAppend(rec.Table, rec.Rows)
		return err
	case wal.TypeCreateTable:
		_, err := e.applyCreate(*rec.Decl)
		return err
	case wal.TypeDropTable:
		_, err := e.applyDropTable(rec.Table)
		return err
	case wal.TypeFitModel:
		spec, err := rec.Fit.ParseSpec()
		if err != nil {
			return err
		}
		_, err = e.applyFit(spec)
		return err
	case wal.TypeRefitModel:
		_, err := e.applyRefit(rec.Name)
		return err
	case wal.TypeDropModel:
		_, err := e.applyDropModel(rec.Name)
		return err
	}
	return fmt.Errorf("datalaws: unknown wal record type %d", rec.Type)
}

// fitRecord is the log record of a FIT MODEL: the spec in source form,
// exactly what the model store persists, so replay re-fits
// deterministically.
func fitRecord(spec modelstore.Spec) *wal.Record {
	r := modelstore.SpecRecord(spec)
	return &wal.Record{Type: wal.TypeFitModel, Fit: &r}
}
