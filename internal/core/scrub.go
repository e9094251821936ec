package core

import (
	"errors"
	"fmt"
	"sync"
	"time"
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
// nothing out from under the verify; a log scrub holds each log from inside
// a pinned version naming it (verifyLogs), so GC cannot delete the file
// during the walk. The scrub walks the same two paths as VerifyIntegrity
// (sstable.Reader.VerifyChecksums, verifyLogs), never takes maintMu and never
// mutates — it can overlap any maintenance job.
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
	for _, t := range tablesOf(v) {
		if _, err := t.r.VerifyChecksums(s.charge); err != nil {
			if errors.Is(err, errScrubStop) {
				return nil // closing
			}
			db.stats.ScrubCorruptions.Add(1)
			return fmt.Errorf("scrub partition %d %s table %d: %w", p.id, t.tier, t.num, err)
		}
		db.stats.ScrubTables.Add(1)
	}
	return nil
}

// scrubLogs verifies every value log referenced by any partition (see
// verifyLogs). Corruption quarantines every partition holding pointers
// into the bad log; a transient read error just skips the log until the
// next pass.
func (s *scrubber) scrubLogs() {
	db := s.db
	db.verifyLogs(s.charge, func(n uint32, _ []uint32, off int64, err error) bool {
		switch {
		case err == nil:
			db.stats.ScrubLogs.Add(1)
		case errors.Is(err, errScrubStop):
			return false
		case Classify(err) == ClassCorruption:
			db.stats.ScrubCorruptions.Add(1)
			lerr := logCorruptionError{log: n, err: err}
			db.quarantineLog(n, fmt.Sprintf("scrub: value log %d (valid prefix %d bytes)", n, off), lerr)
		default:
			// Transient read failure: leave the log for the next pass.
		}
		return !db.closed.Load()
	})
}

// charge counts n verified bytes and paces them.
func (s *scrubber) charge(n int64) error {
	s.db.stats.ScrubBytes.Add(n)
	return s.pace(n)
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
