package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Background maintenance scheduling (BackgroundWorkers > 0).
//
// In background mode a write only appends to the WAL and the memtable; a
// full memtable is frozen onto the partition's immutable queue (still
// served by Get/Scan) and every other maintenance step — flush, merge,
// scan merge, GC, split — becomes a job executed by a fixed worker pool.
// Jobs are deduplicated per (partition, kind): at most one instance of a
// kind is queued or running for a partition at a time, and each completed
// job re-evaluates the partition's triggers, so chains like
// flush → merge → GC → split still happen, just off the foreground path.
//
// Structural jobs (merge/scan-merge/GC/split) are serialized per partition
// by partition.maintMu because they replace table sets the others read;
// flushes take only partition.flushMu, so a flush commits concurrently
// with a long merge build. Lock order with the pool:
//
//	snapMu -> maintMu -> flushMu -> router.mu -> partition.mu
//	  -> logRefs.mu -> hotring.writerMu
//
// A job error is classified (see errors.go) before it can do damage: a
// transient error is retried with bounded exponential backoff + jitter
// (the job's dedup flag stays set, so the retries own the slot). A
// terminal failure escalates through jobFailed: corruption inside one
// partition's files quarantines just that partition (see quarantine.go),
// while manifest-level corruption and non-corruption terminal failures
// trip the DB into degraded read-only mode — writes return a
// DegradedError, reads keep working, no further jobs run. Retrying a job
// from scratch is safe because every job mutates durable and in-memory
// state only at its single manifest-Apply commit point.
//
// jobScrub is the odd one out: enqueued by the scrub pass driver
// (scrub.go) on a timer rather than by a write-side trigger, it only
// reads — verifying the tables of a pinned version — so it runs without
// maintMu and can overlap a merge on the same partition.

type jobKind uint8

const (
	jobFlush jobKind = iota
	jobMerge
	jobScanMerge
	jobGC
	jobSplit
	jobScrub
	numJobKinds
)

func (k jobKind) String() string {
	switch k {
	case jobFlush:
		return "flush"
	case jobMerge:
		return "merge"
	case jobScanMerge:
		return "scan-merge"
	case jobGC:
		return "gc"
	case jobSplit:
		return "split"
	case jobScrub:
		return "scrub"
	}
	return "unknown"
}

type task struct {
	p    *partition
	kind jobKind
}

// scheduler owns the worker pool and the deduplicated job queue.
type scheduler struct {
	db *DB

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []task
	pending map[uint32]*[numJobKinds]bool // queued or running, per partition
	// settling counts workers between finishing a job and having queued
	// what its commit armed, so that pendingJobs reads zero only at rest.
	settling int
	closing  bool
	stopCh   chan struct{} // closed by close(); interrupts retry backoff
	wg       sync.WaitGroup
}

func newScheduler(db *DB, workers int) *scheduler {
	s := &scheduler{
		db:      db,
		pending: make(map[uint32]*[numJobKinds]bool),
		stopCh:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// enqueue schedules kind for p unless the same job is already queued or
// running there.
func (s *scheduler) enqueue(p *partition, kind jobKind) {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return
	}
	flags := s.pending[p.id]
	if flags == nil {
		flags = new([numJobKinds]bool)
		s.pending[p.id] = flags
	}
	if flags[kind] {
		s.mu.Unlock()
		return
	}
	flags[kind] = true
	s.queue = append(s.queue, task{p: p, kind: kind})
	s.mu.Unlock()
	s.cond.Signal()
}

// pendingJobs counts jobs queued or running (the StatsSnapshot gauge).
func (s *scheduler) pendingJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.settling
	for _, flags := range s.pending {
		for _, set := range flags {
			if set {
				n++
			}
		}
	}
	return n
}

// close stops accepting jobs and waits for running ones; queued jobs are
// dropped (Close drains partitions inline afterwards).
func (s *scheduler) close() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	close(s.stopCh) // interrupt retry backoffs so Close never waits on them
	s.cond.Broadcast()
	s.wg.Wait()
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.queue) == 0 && !s.closing {
			s.cond.Wait()
		}
		if s.closing {
			return
		}
		t := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()

		err := s.runWithRetry(t)

		s.mu.Lock()
		if flags := s.pending[t.p.id]; flags != nil {
			flags[t.kind] = false
		}
		s.settling++
		s.mu.Unlock()
		s.jobDone(t, err)
		s.mu.Lock()
		s.settling--
	}
}

// jobDone follows up on a finished job: it wakes throttled writers (and
// lets them observe a failure), escalates a terminal error, and otherwise
// looks at what the job's commit may have armed (flush fills the
// UnsortedStore, merge creates garbage, GC shrinks toward a split decision;
// a split changes the partition set, so all are re-checked).
func (s *scheduler) jobDone(t task, err error) {
	t.p.wakeStalled()
	if err != nil {
		s.db.jobFailed(t, err)
		return
	}
	s.db.afterCommit(t.p, t.kind == jobSplit)
}

// afterCommit looks at the triggers a commit on p may have armed. A commit
// that took p into or out of a shared value log armed more than p's: the
// log's other owners get their gauges refreshed and their triggers looked at
// too, so that what runs next does not depend on which of them happened to
// publish last. all re-checks every partition.
func (db *DB) afterCommit(p *partition, all bool) {
	if db.sched == nil {
		return
	}
	for _, q := range db.partitions() {
		if q.refreshShares() || q == p || all {
			db.checkMaintenance(q)
		}
	}
}

// runWithRetry executes one job, retrying transient failures with bounded
// exponential backoff + jitter. It returns nil when the job (eventually)
// succeeded or the retry was abandoned by close; a non-nil return is a
// terminal failure the caller escalates to degraded mode. Retrying from
// scratch is safe: jobs commit durable and in-memory changes only at
// their single manifest-Apply point, so a failed attempt left no partial
// state behind (orphaned build output is swept at the next open).
func (s *scheduler) runWithRetry(t task) error {
	db := s.db
	delay := db.opts.RetryBaseDelay
	for attempt := 0; ; attempt++ {
		err := s.run(t)
		if err == nil {
			return nil
		}
		if Classify(err) != ClassTransient || attempt >= db.opts.JobRetries {
			db.stats.BackgroundErrors.Add(1)
			return err
		}
		db.stats.BackgroundRetries.Add(1)
		// Jittered backoff: half fixed, half random, so competing retries
		// de-synchronize. Interruptible so close() never waits on it.
		d := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		select {
		case <-s.stopCh:
			return nil // closing: Close drains inline; do not degrade
		case <-time.After(d):
		}
		if delay *= 2; delay > db.opts.RetryMaxDelay {
			delay = db.opts.RetryMaxDelay
		}
	}
}

// run executes one job, re-checking its trigger (state may have moved
// since it was queued).
func (s *scheduler) run(t task) error {
	db := s.db
	if db.closed.Load() || db.degradedErr() != nil {
		return nil
	}
	p := t.p
	if p.quarantine.Load() != nil {
		// Maintenance over corrupt inputs would launder the damage into
		// fresh files; quarantined partitions hold still until repair.
		return nil
	}
	if h := db.testHookJobStart; h != nil {
		h(p, t.kind)
	}
	if t.kind == jobFlush {
		return p.backgroundFlush()
	}
	if t.kind == jobScrub {
		// Read-only: verifies a pinned version, never mutates, and so
		// deliberately skips maintMu — a scrub must not delay a merge.
		return db.scrubPartitionTables(p)
	}
	if t.kind == jobSplit {
		return db.splitPartition(p) // takes maintMu and flushMu itself
	}
	p.maintMu.Lock()
	defer p.maintMu.Unlock()
	switch t.kind {
	case jobMerge:
		return p.backgroundMerge()
	case jobScanMerge:
		return p.backgroundScanMerge()
	case jobGC:
		return p.backgroundGC()
	}
	return nil
}

// checkMaintenance enqueues what p's current version calls for. The
// triggers are functions of the version, so they are evaluated where one is
// published: when a write freezes a memtable and after every completed job
// — never per put.
func (db *DB) checkMaintenance(p *partition) {
	if db.sched == nil || db.closed.Load() || db.degradedErr() != nil {
		return
	}
	if p.quarantine.Load() != nil {
		return
	}
	db.triggerEvals.Add(1)
	v := p.cur.Load()
	if v.nImm > 0 {
		db.sched.enqueue(p, jobFlush)
	}
	if v.unsBytes >= db.opts.UnsortedLimit {
		db.sched.enqueue(p, jobMerge)
	} else if !db.opts.DisableScanMerge && v.unsTables >= db.opts.ScanMergeLimit {
		db.sched.enqueue(p, jobScanMerge)
	}
	if v.needsGC() {
		db.sched.enqueue(p, jobGC)
	}
	if !db.opts.DisablePartitioning && v.size >= db.opts.PartitionSizeLimit {
		db.sched.enqueue(p, jobSplit)
	}
}

// setDegraded records a terminal background failure, entering degraded
// read-only mode: writes fail with a DegradedError naming the job and
// cause, reads keep serving the (still consistent) on-disk state. The
// first terminal failure wins.
func (db *DB) setDegraded(t task, err error) {
	if err == nil {
		return
	}
	class := Classify(err)
	why := "retries exhausted"
	if class != ClassTransient {
		why = "not retryable"
	}
	d := &DegradedError{
		Cause: fmt.Sprintf("%s job on partition %d failed (%s, %s)",
			t.kind, t.p.id, class, why),
		Since: time.Now(),
		Err:   err,
	}
	if db.degradedState.CompareAndSwap(nil, d) {
		for _, p := range db.partitions() {
			p.wakeStalled()
		}
	}
}

// degradedErr returns the error that tripped the DB into degraded mode,
// or nil. It matches ErrDegraded via errors.Is.
func (db *DB) degradedErr() error {
	if d := db.degradedState.Load(); d != nil {
		return d
	}
	return nil
}

// ---------------------------------------------------------------------------
// Write throttling. Backpressure has two stages keyed to the immutable
// queue depth (and, as a backstop, to an UnsortedStore that outgrew its
// limit because merges lag): a soft slowdown sleeps each write briefly so
// flushes can catch up; a hard stall blocks writers until a maintenance
// job completes. Throttling reads the gauges of the partition's current
// version and happens before the partition lock is taken.

const (
	slowdownUnsFactor = 2 // soft throttle at 2x UnsortedLimit
	stallUnsFactor    = 4 // hard stall at 4x UnsortedLimit
	slowdownSleep     = time.Millisecond
	stallRecheck      = 10 * time.Millisecond
)

// throttle applies write backpressure for p. Returns the failure/closed
// error a stalled writer should surface instead of waiting forever.
func (db *DB) throttle(p *partition) error {
	if db.sched == nil {
		return nil
	}
	stalled := false
	for {
		if db.closed.Load() {
			return ErrClosed
		}
		if err := db.degradedErr(); err != nil {
			return err
		}
		if err := p.quarantineErr(); err != nil {
			// Maintenance on this partition stopped; a stalled writer would
			// wait forever, so surface the quarantine instead.
			return err
		}
		v := p.cur.Load()
		nImm, unsBytes := v.nImm, v.unsBytes
		switch {
		case nImm >= db.opts.StallImmutables || unsBytes >= stallUnsFactor*db.opts.UnsortedLimit:
			if !stalled {
				stalled = true
				db.stats.Stalls.Add(1)
			}
			ch := p.stallWait()
			start := time.Now()
			select {
			case <-ch:
			case <-time.After(stallRecheck):
			}
			db.stats.StallNanos.Add(time.Since(start).Nanoseconds())
		case nImm >= db.opts.SlowdownImmutables || unsBytes >= slowdownUnsFactor*db.opts.UnsortedLimit:
			start := time.Now()
			time.Sleep(slowdownSleep)
			db.stats.SlowdownNanos.Add(time.Since(start).Nanoseconds())
			return nil
		default:
			return nil
		}
	}
}

// stallWait returns a channel closed at the next maintenance wake-up.
func (p *partition) stallWait() <-chan struct{} {
	p.stallMu.Lock()
	if p.stallCh == nil {
		p.stallCh = make(chan struct{})
	}
	ch := p.stallCh
	p.stallMu.Unlock()
	return ch
}

// wakeStalled releases every writer blocked in a hard stall on p.
func (p *partition) wakeStalled() {
	p.stallMu.Lock()
	if p.stallCh != nil {
		close(p.stallCh)
		p.stallCh = nil
	}
	p.stallMu.Unlock()
}
