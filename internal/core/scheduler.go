package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Maintenance scheduling.
//
// A write only appends to the WAL and the memtable; a full memtable is
// frozen onto the partition's immutable queue (still served by Get/Scan) and
// every maintenance step — flush, merge, scan merge, GC, split — is a job:
// pin the partition's version, build new files with no partition lock held,
// take partition.mu for the manifest commit and the publish. The scheduler
// is the job executor, and the executor is all that BackgroundWorkers
// selects:
//
//   - With workers, a submitted job is queued for a fixed pool. Jobs are
//     deduplicated per (partition, kind) — at most one instance of a kind is
//     queued or running for a partition at a time — and each finished job
//     has every trigger looked at again, so chains like
//     flush → merge → GC → split still happen, just off the foreground path.
//     Writers are throttled when the pool falls behind, and a job error is
//     the pool's to handle (below).
//   - With none, a submitted job runs on the goroutine that submitted it —
//     through the same run entry — before submit returns, followed depth
//     first by what its commit armed (callerRuns). The writer that fills a
//     memtable pays for its flush and whatever hangs off it, so there is
//     nothing to throttle against, and a job error goes to that writer.
//
// Structural jobs (merge/scan-merge/GC/split) are serialized per partition
// by partition.maintMu because they replace table sets the others read;
// flushes take only partition.flushMu, so a flush commits concurrently
// with a long merge build. Lock order:
//
//	snapMu -> maintMu -> flushMu -> router.mu -> partition.mu
//	  -> liveFiles.mu -> hotring.writerMu
//
// A pooled job's error is classified (see errors.go) before it can do
// damage: a transient error is retried with bounded exponential backoff +
// jitter (the job's dedup flag stays set, so the retries own the slot). A
// terminal failure escalates through jobFailed: corruption inside one
// partition's files quarantines just that partition (see quarantine.go),
// while manifest-level corruption and non-corruption terminal failures
// trip the DB into degraded read-only mode — writes return a
// DegradedError, reads keep working, no further jobs run. Retrying a job
// from scratch is safe because every job mutates durable and in-memory
// state only at its single manifest-Apply commit point. A caller-run job
// has a better sink: its classified error is returned by the Put or Flush
// that ran it, which may simply try again.
//
// jobScrub is the odd one out: submitted by the scrub pass driver
// (scrub.go) on a timer rather than by a write-side trigger, it only
// reads — verifying the tables of a pinned version — so it runs without
// maintMu and can overlap a merge on the same partition. The driver has no
// caller to hand an error to, so its jobs get the pool's error handling on
// either executor (see submit).

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

// Two things besides a job's commit publish a version maintenance can hang
// off. They index a schedule next to the kinds.
const (
	memFrozen   = numJobKinds + iota // a write froze a full memtable
	userFlushed                      // Flush or CompactAll committed for its caller
	numEvents
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

// everyTrigger is what the pool looks at behind every event: any commit can
// arm any trigger, and finding out costs no writer anything.
var everyTrigger = []jobKind{jobFlush, jobMerge, jobScanMerge, jobGC, jobSplit}

// callerRuns is the schedule of the executor without workers: behind the
// indexed event the submitting goroutine looks at these triggers, in this
// order, each against the version current by then, and runs what is due
// before it looks at the next. It looks at GC and split only behind a merge
// and at nothing behind a user's Flush or CompactAll. That is narrower than
// the pool's, on purpose: it is the schedule every single-writer dataset and
// ledger row was built under, and widening it moves all of them (see
// DESIGN.md §5). The flush behind a flush drains a queue an earlier failed
// flush left standing.
var callerRuns = [numEvents][]jobKind{
	memFrozen: {jobFlush},
	jobFlush:  {jobFlush, jobMerge, jobScanMerge},
	jobMerge:  {jobGC, jobSplit},
}

// due reports whether v's gauges call for a job of kind k.
func (v *version) due(k jobKind) bool {
	opts := &v.p.db.opts
	switch k {
	case jobFlush:
		return v.nImm > 0
	case jobMerge:
		return v.unsBytes >= opts.UnsortedLimit
	case jobScanMerge:
		return !opts.exp.DisableScanMerge && v.unsTables >= opts.ScanMergeLimit
	case jobGC:
		return v.needsGC()
	case jobSplit:
		return !opts.exp.DisablePartitioning && v.size >= opts.PartitionSizeLimit && v.size != v.p.noSplit.Load()
	}
	return false
}

type task struct {
	p    *partition
	kind jobKind
}

// scheduler executes maintenance jobs: on its worker pool, or with no
// workers on the goroutine that submits them.
type scheduler struct {
	db      *DB
	workers int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []task
	pending map[uint32]*[numJobKinds]bool // queued or running, per partition
	// settling counts workers between finishing a job and having queued
	// what its commit armed, so that pendingJobs reads zero only at rest.
	settling int
	closing  bool
	stopCh   chan struct{} // closed by close(); interrupts retry backoff and scrub pacing
	wg       sync.WaitGroup
}

func newScheduler(db *DB, workers int) *scheduler {
	s := &scheduler{
		db:      db,
		workers: workers,
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

// submit asks for a job of kind on p. The pool queues it, unless the same
// job is already queued or running there, and submit returns nil at once.
// Without workers the job runs here, and then whatever its commit armed
// (callerRuns); the first error ends the chain and is the caller's.
func (s *scheduler) submit(p *partition, kind jobKind) error {
	t := task{p: p, kind: kind}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	if s.workers == 0 {
		s.wg.Add(1) // close waits for caller-run jobs as it does for workers
		s.mu.Unlock()
		defer s.wg.Done()
		if kind == jobScrub {
			// The scrub driver has no caller to hand an error to: its jobs
			// get the pool's retries and escalation on this executor too.
			s.jobDone(t, s.runWithRetry(t))
			return nil
		}
		if err := s.run(t); err != nil {
			return err
		}
		return s.db.checkMaintenance(p, kind)
	}
	flags := s.pending[p.id]
	if flags == nil {
		flags = new([numJobKinds]bool)
		s.pending[p.id] = flags
	}
	if flags[kind] {
		s.mu.Unlock()
		return nil
	}
	flags[kind] = true
	s.queue = append(s.queue, t)
	s.mu.Unlock()
	s.cond.Signal()
	return nil
}

// pendingJobs counts jobs queued or running on the pool (the StatsSnapshot
// gauge).
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
// dropped (Close drains the partitions afterwards).
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

// jobDone follows up on a job nobody waited for: it wakes throttled
// writers (and lets them observe a failure), escalates a terminal error,
// and otherwise looks at what the job's commit may have armed (flush fills
// the UnsortedStore, merge creates garbage, GC shrinks toward a split
// decision; a split changes the partition set, so all are re-checked).
func (s *scheduler) jobDone(t task, err error) {
	t.p.wakeStalled()
	if err != nil {
		s.db.jobFailed(t, err)
		return
	}
	s.db.afterCommit(t.p, t.kind)
}

// afterCommit is what the pool does behind a commit on p, beyond looking at
// p's triggers: the partitions whose share of a value log another one's
// publish moved (liveFiles.stale) get a version with exact gauges and their
// triggers looked at too, so what runs next does not depend on which of
// them happened to publish last. A split re-checks every partition. The
// caller-run schedule has no such step.
func (db *DB) afterCommit(p *partition, after jobKind) {
	if db.sched.workers == 0 {
		return
	}
	db.liveFiles.Lock()
	stale := db.liveFiles.stale
	db.liveFiles.stale = map[*partition]bool{}
	db.liveFiles.Unlock()
	for _, q := range db.partitions() {
		if stale[q] {
			q.mu.Lock()
			q.publish(q.cur.Load().successor())
			q.mu.Unlock()
		}
		if stale[q] || q == p || after == jobSplit {
			db.checkMaintenance(q, after)
		}
	}
}

// runWithRetry executes one job, retrying transient failures with bounded
// exponential backoff + jitter. It returns nil when the job (eventually)
// succeeded or the retry was abandoned by close; a non-nil return is a
// terminal failure the caller escalates to degraded mode. Retrying from
// scratch is safe: jobs commit durable and in-memory changes only at
// their single manifest-Apply point, so a failed attempt left no partial
// state behind (its build output went when its job entry ended).
func (s *scheduler) runWithRetry(t task) error {
	db := s.db
	delay := retryBaseDelay
	for attempt := 0; ; attempt++ {
		err := s.run(t)
		if err == nil {
			return nil
		}
		if Classify(err) != ClassTransient || attempt >= jobRetries {
			db.stats.BackgroundErrors.Add(1)
			return err
		}
		db.stats.BackgroundRetries.Add(1)
		// Jittered backoff: half fixed, half random, so competing retries
		// de-synchronize. Interruptible so close() never waits on it.
		d := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		select {
		case <-s.stopCh:
			return nil // closing: Close drains the partitions; do not degrade
		case <-time.After(d):
		}
		delay *= 2
	}
}

// maintainable reports whether maintenance may run on p. A quarantined
// partition holds still until repair: maintenance over corrupt inputs would
// launder the damage into fresh files.
func (db *DB) maintainable(p *partition) bool {
	return !db.closed.Load() && db.degradedErr() == nil && p.quarantine.Load() == nil
}

// run is the one entry every job goes through, on either executor. For a
// structural job it takes maintMu, pins the version the job builds from and
// re-checks the trigger against it (state may have moved since the job was
// submitted).
func (s *scheduler) run(t task) error {
	db, p := s.db, t.p
	if !db.maintainable(p) {
		return nil
	}
	if h := db.testHookJobStart; h != nil {
		h(p, t.kind)
	}
	switch t.kind {
	case jobFlush:
		return p.flushJob() // takes flushMu only: a flush commits beside a long merge build
	case jobScrub:
		// Read-only: verifies a pinned version, never mutates, and so
		// deliberately skips maintMu — a scrub must not delay a merge.
		return db.scrubPartitionTables(p)
	case jobSplit:
		return db.splitPartition(p) // takes maintMu and flushMu itself
	}
	p.maintMu.Lock()
	defer p.maintMu.Unlock()
	v := p.acquire()
	defer v.release()
	if !v.due(t.kind) {
		return nil
	}
	switch t.kind {
	case jobMerge:
		return p.merge(v)
	case jobScanMerge:
		return p.scanMerge(v)
	}
	return p.gc(v)
}

// checkMaintenance submits what p's current version calls for among the
// triggers the executor looks at behind event after. The triggers are
// functions of the version, so they are evaluated where one is published:
// when a write freezes a memtable and behind a commit — never per put. The
// error is a caller-run job's.
func (db *DB) checkMaintenance(p *partition, after jobKind) error {
	kinds := everyTrigger
	if db.sched.workers == 0 {
		kinds = callerRuns[after]
	}
	if len(kinds) == 0 || !db.maintainable(p) {
		return nil
	}
	db.triggerEvals.Add(1)
	for _, k := range kinds {
		v := p.cur.Load()
		if !v.due(k) || (k == jobScanMerge && v.due(jobMerge)) {
			continue // a merge takes the tables a scan merge would compact
		}
		if err := db.sched.submit(p, k); err != nil {
			return err
		}
	}
	return nil
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
	if db.sched.workers == 0 {
		return nil // the writer runs the maintenance it causes: there is nobody to wait for
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
