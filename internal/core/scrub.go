package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"unikv/internal/sstable"
)

// Background integrity scrub (Options.ScrubInterval > 0). UniKV has no
// Bloom filters and spreads cold data across per-partition tables plus
// shared value logs, so a latent bad block can sit unnoticed until a read
// happens to land on it — at which point the damage may already have been
// compacted into fresh files. The scrub closes that window: every
// ScrubInterval it re-reads and checksum-verifies every table block and
// every value-log frame, at most ScrubBytesPerSec bytes per second, and
// corruption it finds quarantines exactly the affected partitions
// (quarantine.go) while the rest of the DB keeps serving.
//
// Concurrency contract: a table scrub pins the partition's current version,
// which holds its readers, so a concurrent merge replacing a table closes
// nothing out from under the verify; a log scrub holds a logRefs
// reference, so GC cannot delete the file mid-walk. The scrub never takes
// maintMu and never mutates — it can overlap any maintenance job.
//
// Scheduling: each partition's table scrub is a jobScrub task submitted to
// the scheduler — queued for the worker pool (deduplicated like any other
// kind, visible in PendingJobs), or run on the driver goroutine when there
// are no workers, under the same retry and escalation either way. Value
// logs are shared across partitions, so the driver scrubs the union of
// referenced logs once per pass rather than once per owner. The driver and
// every rate-limit wait stop on the scheduler's stop signal.

// errScrubStop aborts an in-flight scrub when the DB is closing. It is
// filtered out before errors escalate (a close is not a failure).
var errScrubStop = errors.New("unikv: scrub interrupted by close")

type scrubber struct {
	db     *DB
	stopCh <-chan struct{} // the scheduler's: closed first thing by DB.Close
	wg     sync.WaitGroup  // the driver; DB.Close waits on it

	// Rate limiter: reads reserve their byte cost in a virtual timeline;
	// next is when the bucket allows the following read. Shared by every
	// concurrent scrub job so the configured rate bounds the total.
	limMu sync.Mutex
	next  time.Time
}

func newScrubber(db *DB) *scrubber {
	s := &scrubber{db: db, stopCh: db.sched.stopCh}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *scrubber) loop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.db.opts.ScrubInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-ticker.C:
		}
		s.pass()
	}
}

// pass starts one full scrub round: every partition's tables, then the
// union of referenced value logs.
func (s *scrubber) pass() {
	db := s.db
	if db.closed.Load() || db.degradedErr() != nil {
		return
	}
	db.stats.ScrubPasses.Add(1)
	for _, p := range db.partitions() {
		if p.quarantine.Load() != nil {
			continue
		}
		db.sched.submit(p, jobScrub) // the error sink is the scheduler's jobFailed
	}
	s.scrubLogs()
}

// scrubTable names one table during a scrub.
type scrubTable struct {
	tier string
	num  uint64
	r    *sstable.Reader
}

// tablesOf lists v's tables, unsorted then sorted, for a verification pass.
func tablesOf(v *version) []scrubTable {
	var tables []scrubTable
	for _, t := range v.uns.Tables() {
		tables = append(tables, scrubTable{tier: "unsorted", num: t.Meta.FileNum, r: t.Reader})
	}
	for _, t := range v.srt.Tables() {
		tables = append(tables, scrubTable{tier: "sorted", num: t.Meta.FileNum, r: t.Reader})
	}
	return tables
}

// scrubPartitionTables checksum-verifies every table of p block by block,
// pacing reads through the rate limiter. It is the jobScrub body, called
// from the scheduler's run under its runWithRetry. A close mid-scrub
// returns nil — stopping is not a failure.
func (db *DB) scrubPartitionTables(p *partition) error {
	s := db.scrub
	if s == nil {
		return nil
	}
	// The pinned version keeps every reader and file alive even if a
	// concurrent merge/GC replaces the table before the verify reaches it.
	v := p.acquire()
	defer v.release()
	tables := tablesOf(v)
	for _, t := range tables {
		for i := 0; i < t.r.NumBlocks(); i++ {
			n, err := t.r.VerifyBlock(i)
			if err != nil {
				db.stats.ScrubCorruptions.Add(1)
				return fmt.Errorf("scrub partition %d %s table %d: %w", p.id, t.tier, t.num, err)
			}
			db.stats.ScrubBytes.Add(n)
			if err := s.pace(n); err != nil {
				return nil // closing
			}
		}
		db.stats.ScrubTables.Add(1)
	}
	return nil
}

// scrubLogs verifies every value log referenced by any partition,
// including the active log's sealed prefix (the reconciled frame boundary
// is immutable, so the walk cannot race appends). Corruption quarantines
// every partition holding pointers into the bad log; a transient read
// error just skips the log until the next pass.
func (s *scrubber) scrubLogs() {
	db := s.db
	logs := map[uint32]bool{}
	for _, p := range db.partitions() {
		for _, n := range p.cur.Load().logs {
			logs[n] = true
		}
	}
	activeNum, activeOff, hasActive := db.vl.ActiveBound()
	for n := range logs {
		if db.closed.Load() {
			return
		}
		// Hold a log reference across the walk so GC cannot delete the file
		// mid-read; owners hold the baseline references, so releasing only
		// removes the log if every owner moved on while we scanned.
		db.retainLogs([]uint32{n})
		limit := int64(-1)
		if hasActive && n == activeNum {
			limit = activeOff
		}
		_, off, err := db.vl.VerifyLogPrefix(n, limit, func(frameBytes int64) error {
			db.stats.ScrubBytes.Add(frameBytes)
			return s.pace(frameBytes)
		})
		db.releaseLogs([]uint32{n})
		switch {
		case err == nil:
			db.stats.ScrubLogs.Add(1)
		case errors.Is(err, errScrubStop):
			return
		case Classify(err) == ClassCorruption:
			db.stats.ScrubCorruptions.Add(1)
			lerr := logCorruptionError{log: n, err: err}
			db.quarantineLog(n, fmt.Sprintf("scrub: value log %d (valid prefix %d bytes)", n, off), lerr)
		default:
			// Transient read failure: leave the log for the next pass.
		}
	}
}

// pace charges n bytes against the scrub rate limit, sleeping as needed.
// It returns errScrubStop when the scrubber is shutting down so callers
// abort instead of pacing through close.
func (s *scrubber) pace(n int64) error {
	rate := s.db.opts.ScrubBytesPerSec
	if rate <= 0 { // unlimited: only honor the stop signal
		select {
		case <-s.stopCh:
			return errScrubStop
		default:
			return nil
		}
	}
	s.limMu.Lock()
	now := time.Now()
	if s.next.Before(now) {
		s.next = now
	}
	wake := s.next
	s.next = s.next.Add(time.Duration(float64(n) / float64(rate) * float64(time.Second)))
	s.limMu.Unlock()
	d := time.Until(wake)
	if d <= 0 {
		select {
		case <-s.stopCh:
			return errScrubStop
		default:
			return nil
		}
	}
	select {
	case <-s.stopCh:
		return errScrubStop
	case <-time.After(d):
		return nil
	}
}
