package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Errors surfaced by the log.
var (
	// ErrClosed marks appends against a closed log.
	ErrClosed = errors.New("wal: log closed")
)

// Config tunes the log. The zero value selects sane defaults.
type Config struct {
	// BatchSize caps how many records one commit group may carry (default
	// 128). Larger groups amortize the fsync further at the cost of latency
	// for the first enqueued writer.
	BatchSize int
	// MaxWait bounds how long a group waits for company after its first
	// record before committing anyway (default 2ms).
	MaxWait time.Duration
	// SegmentBytes is the rotation threshold (default 16MB). A checkpoint
	// also rotates, regardless of size.
	SegmentBytes int64
	// FS is the filesystem; nil selects the real one.
	FS FS
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 16 << 20
	}
	if c.FS == nil {
		c.FS = OSFS{}
	}
	return c
}

// Stats is a point-in-time snapshot of log activity.
type Stats struct {
	// Segment is the index of the segment currently appended to; Segments
	// counts live segment files; SegmentBytes is the current segment's size.
	Segment      int
	Segments     int
	SegmentBytes int64
	// Records/Groups/Syncs count appended records, commit groups, and
	// fsyncs since open. Groups < Records means group commit is batching.
	Records uint64
	Groups  uint64
	Syncs   uint64
	// Replayed counts records applied during recovery at Open.
	Replayed int
	// Truncated reports whether recovery found and cut a torn tail.
	Truncated bool
	// Err is the sticky failure ("" when healthy): after any write or fsync
	// error the log poisons itself and every subsequent append fails, since
	// the tail beyond the failure is untrustworthy.
	Err string
}

// request is one record to commit, or, with rotate set, a rotation barrier.
type request struct {
	rec    *Record
	rotate bool
	done   chan result
}

type result struct {
	err error
	seg int
}

// Log is an append-only segmented write-ahead log with group commit. One
// writer goroutine owns the file: Append enqueues a record and blocks until
// the group holding it is durably committed (written + fsynced).
type Log struct {
	dir string
	cfg Config
	fs  FS

	reqs   chan request
	sendMu sync.RWMutex // excludes Append sends vs Close closing reqs
	closed bool
	done   chan struct{} // writer goroutine exited

	// Writer-goroutine state (no lock needed beyond statsMu for stats).
	f        File
	seg      int
	segBytes int64
	minSeg   int // oldest live segment
	err      error

	statsMu sync.Mutex
	stats   Stats

	closeOnce sync.Once
	closeErr  error
}

// segName renders the file name of segment i.
func segName(i int) string { return fmt.Sprintf("wal-%08d.seg", i) }

// parseSeg extracts the index from a segment file name, or -1.
func parseSeg(name string) int {
	var i int
	if n, err := fmt.Sscanf(name, "wal-%d.seg", &i); n == 1 && err == nil {
		return i
	}
	return -1
}

// Open opens (creating if needed) the log in dir, replays every record in
// segments >= startSeg through apply in log order, repairs a torn tail by
// truncating at the first corrupt frame, and readies the log for appending.
//
// Segments below startSeg are checkpoint debris (a crash hit between the
// snapshot commit and segment reclamation) and are deleted without replay.
// apply errors abort the open: the engine layer is expected to absorb
// logical replay failures itself and reserve errors for fatal conditions.
func Open(dir string, startSeg int, cfg Config, apply func(*Record) error) (*Log, error) {
	cfg = cfg.withDefaults()
	fs := cfg.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, name := range names {
		if i := parseSeg(name); i >= 0 {
			if i < startSeg {
				if err := fs.Remove(join(dir, name)); err != nil {
					return nil, fmt.Errorf("wal: reclaiming %s: %w", name, err)
				}
				continue
			}
			segs = append(segs, i)
		}
	}
	l := &Log{
		dir:  dir,
		cfg:  cfg,
		fs:   fs,
		reqs: make(chan request, 4*cfg.BatchSize),
		done: make(chan struct{}),
		seg:  startSeg,
	}
	// Replay in segment order. Segments are created in order, so sorted
	// indices are log order; gaps cannot happen short of manual deletion,
	// and replay stops at one rather than skipping history.
	sortInts(segs)
	replayed := 0
	truncated := false
	for pos, si := range segs {
		if pos > 0 && si != segs[pos-1]+1 {
			return nil, fmt.Errorf("wal: segment gap: %s missing", segName(segs[pos-1]+1))
		}
		n, cut, err := l.replaySegment(join(dir, segName(si)), apply)
		replayed += n
		if err != nil {
			return nil, err
		}
		if cut {
			truncated = true
			// Everything after a torn segment is untrustworthy: the tear
			// means the crash happened while this segment was the tail, so
			// later segments can only be debris.
			for _, later := range segs[pos+1:] {
				if err := fs.Remove(join(dir, segName(later))); err != nil {
					return nil, fmt.Errorf("wal: removing post-tear %s: %w", segName(later), err)
				}
			}
			segs = segs[:pos+1]
			break
		}
	}
	if len(segs) > 0 {
		l.seg = segs[len(segs)-1]
		l.minSeg = segs[0]
	} else {
		l.minSeg = startSeg
	}
	f, size, err := fs.OpenAppend(join(dir, segName(l.seg)))
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		// First open of this segment: make its directory entry durable
		// before acking anything written into it.
		if err := fs.SyncDir(dir); err != nil {
			_ = f.Close() // error path: the SyncDir failure poisons the open
			return nil, err
		}
	}
	l.f = f
	l.segBytes = size
	l.stats.Replayed = replayed
	l.stats.Truncated = truncated
	l.stats.Segment = l.seg
	l.stats.Segments = len(segs)
	if l.stats.Segments == 0 {
		l.stats.Segments = 1
	}
	l.stats.SegmentBytes = size
	go l.run()
	return l, nil
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// replaySegment applies every intact record of one segment in order. On a
// torn or corrupt frame it truncates the file there and reports cut=true;
// bytes after the tear never reach apply.
func (l *Log) replaySegment(path string, apply func(*Record) error) (n int, cut bool, err error) {
	rf, err := l.fs.OpenRead(path)
	if err != nil {
		return 0, false, err
	}
	defer rf.Close()
	br := bufio.NewReader(rf)
	var off int64
	for {
		payload, err := readFrame(br)
		if err == io.EOF {
			return n, false, nil
		}
		if errors.Is(err, ErrCorrupt) {
			if terr := l.fs.Truncate(path, off); terr != nil {
				return n, false, fmt.Errorf("wal: truncating torn tail of %s: %w", path, terr)
			}
			return n, true, nil
		}
		if err != nil {
			return n, false, err
		}
		rec, err := Decode(payload)
		if errors.Is(err, ErrCorrupt) {
			// CRC passed but the payload is malformed — treat as a tear at
			// this frame rather than guessing.
			if terr := l.fs.Truncate(path, off); terr != nil {
				return n, false, fmt.Errorf("wal: truncating torn tail of %s: %w", path, terr)
			}
			return n, true, nil
		}
		if err != nil {
			return n, false, err
		}
		if err := apply(rec); err != nil {
			return n, false, err
		}
		n++
		off += int64(8 + len(payload))
	}
}

// Append logs one record and blocks until it is durable: written to the
// current segment and covered by a group fsync. Concurrent callers are
// batched into commit groups sharing one fsync. After any I/O failure the
// log is poisoned and every Append (including queued ones) fails.
func (l *Log) Append(rec *Record) error {
	r := request{rec: rec, done: make(chan result, 1)}
	l.sendMu.RLock()
	if l.closed {
		l.sendMu.RUnlock()
		return ErrClosed
	}
	l.reqs <- r
	l.sendMu.RUnlock()
	return (<-r.done).err
}

// Rotate seals the current segment and opens the next one, returning the
// new segment's index. Records appended after Rotate returns land in the
// new segment. It serializes with in-flight commit groups through the
// writer goroutine, so a checkpoint that rotates sees every previously
// acked record in the sealed segments.
func (l *Log) Rotate() (int, error) {
	r := request{rotate: true, done: make(chan result, 1)}
	l.sendMu.RLock()
	if l.closed {
		l.sendMu.RUnlock()
		return 0, ErrClosed
	}
	l.reqs <- r
	l.sendMu.RUnlock()
	res := <-r.done
	return res.seg, res.err
}

// ReclaimBelow deletes segments with index < seg — the checkpoint has made
// them redundant. The current segment is never deleted.
func (l *Log) ReclaimBelow(seg int) error {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return err
	}
	removed := false
	for _, name := range names {
		if i := parseSeg(name); i >= 0 && i < seg {
			if err := l.fs.Remove(join(l.dir, name)); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		if err := l.fs.SyncDir(l.dir); err != nil {
			return err
		}
	}
	l.statsMu.Lock()
	if seg > l.minSeg {
		l.minSeg = seg
		l.stats.Segments = l.stats.Segment - l.minSeg + 1
	}
	l.statsMu.Unlock()
	return nil
}

// Close flushes and fsyncs everything queued, then closes the segment.
// Subsequent Appends fail with ErrClosed. Close is idempotent: later calls
// return the first call's result.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		l.sendMu.Lock()
		l.closed = true
		close(l.reqs)
		l.sendMu.Unlock()
		<-l.done
		l.closeErr = l.err
	})
	return l.closeErr
}

// Stats snapshots activity counters.
func (l *Log) Stats() Stats {
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	return l.stats
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// run is the writer goroutine: it owns the segment file, forms commit
// groups, and acks callers after the group fsync.
func (l *Log) run() {
	defer close(l.done)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		first, ok := <-l.reqs
		if !ok {
			l.shutdown()
			return
		}
		if first.rotate {
			first.done <- l.control()
			continue
		}
		group := []request{first}
		var ctls []request
		timer.Reset(l.cfg.MaxWait)
	collect:
		for len(group) < l.cfg.BatchSize {
			select {
			case r, ok := <-l.reqs:
				if !ok {
					// Close raced the collection: commit what we have, then
					// run the shutdown path.
					if !timer.Stop() {
						<-timer.C
					}
					l.commitGroup(group)
					for _, c := range ctls {
						c.done <- l.control()
					}
					l.shutdown()
					return
				}
				if r.rotate {
					// Rotations act as group barriers: commit first,
					// then rotate in arrival order.
					ctls = append(ctls, r)
					break collect
				}
				group = append(group, r)
			case <-timer.C:
				break collect
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		l.commitGroup(group)
		for _, c := range ctls {
			c.done <- l.control()
		}
	}
}

// shutdown drains any remaining queued requests (the channel is closed),
// commits them as final groups, and closes the file.
func (l *Log) shutdown() {
	var group []request
	for r := range l.reqs {
		if r.rotate {
			if len(group) > 0 {
				l.commitGroup(group)
				group = nil
			}
			r.done <- l.control()
			continue
		}
		group = append(group, r)
		if len(group) >= l.cfg.BatchSize {
			l.commitGroup(group)
			group = nil
		}
	}
	if len(group) > 0 {
		l.commitGroup(group)
	}
	if l.f != nil {
		if err := l.f.Sync(); err != nil && l.err == nil {
			l.err = err
		}
		if err := l.f.Close(); err != nil && l.err == nil {
			l.err = err
		}
		l.f = nil
	}
}

// control executes a rotation barrier on the writer goroutine.
func (l *Log) control() result {
	if l.err != nil {
		return result{err: l.err}
	}
	if err := l.rotate(); err != nil {
		l.err = err
		return result{err: err}
	}
	return result{seg: l.seg}
}

// commitGroup writes every record of the group as its own frame, fsyncs
// once, and acks (or nacks) every caller. Any failure poisons the log: a
// group that did not reach stable storage whole is reported failed to every
// member, and the segment tail beyond the last good sync is no longer
// appended to.
func (l *Log) commitGroup(group []request) {
	if l.err != nil {
		for _, r := range group {
			r.done <- result{err: l.err}
		}
		return
	}
	var werr error
	written := int64(0)
	for _, r := range group {
		frame := appendFrame(nil, r.rec.Encode())
		if _, err := l.f.Write(frame); err != nil {
			werr = err
			break
		}
		written += int64(len(frame))
	}
	if werr == nil {
		if err := l.f.Sync(); err != nil {
			werr = err
		}
	}
	if werr != nil {
		l.err = werr
		l.bumpStats(func(s *Stats) { s.Err = werr.Error() })
		for _, r := range group {
			r.done <- result{err: werr}
		}
		return
	}
	l.segBytes += written
	l.bumpStats(func(s *Stats) {
		s.Records += uint64(len(group))
		s.Groups++
		s.Syncs++
		s.SegmentBytes = l.segBytes
	})
	for _, r := range group {
		r.done <- result{seg: l.seg}
	}
	if l.segBytes >= l.cfg.SegmentBytes {
		if err := l.rotate(); err != nil {
			// The committed group is durable; only subsequent appends fail.
			l.err = err
			l.bumpStats(func(s *Stats) { s.Err = err.Error() })
		}
	}
}

// rotate seals the current segment and opens the next; writer goroutine
// only.
func (l *Log) rotate() error {
	if err := l.f.Close(); err != nil {
		return err
	}
	next := l.seg + 1
	f, size, err := l.fs.OpenAppend(join(l.dir, segName(next)))
	if err != nil {
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		_ = f.Close() // error path: the SyncDir failure poisons the rotation
		return err
	}
	l.f = f
	l.seg = next
	l.segBytes = size
	l.bumpStats(func(s *Stats) {
		s.Segment = next
		s.Segments = next - l.minSeg + 1
		s.SegmentBytes = size
		s.Syncs++ // the directory sync
	})
	return nil
}

func (l *Log) bumpStats(f func(*Stats)) {
	l.statsMu.Lock()
	f(&l.stats)
	l.statsMu.Unlock()
}
