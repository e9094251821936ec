// Fixture: the documented lock hierarchy snapMu -> maintMu -> flushMu
// -> router.mu -> partition.mu -> liveFiles.mu
// -> hotring.writerMu replayed over local stand-ins (classification is by
// field name, so the mutex types themselves need only Lock/Unlock-shaped
// methods).
package core

type mutex struct{}

func (m *mutex) Lock()   {}
func (m *mutex) Unlock() {}

type rwmutex struct{}

func (m *rwmutex) Lock()    {}
func (m *rwmutex) Unlock()  {}
func (m *rwmutex) RLock()   {}
func (m *rwmutex) RUnlock() {}

type partition struct {
	mu   rwmutex
	keys int
}

type DB struct {
	snapMu  mutex
	maintMu mutex
	flushMu mutex
	router  struct {
		rwmutex
		parts []*partition
	}
	liveFiles struct {
		mutex
		refs map[uint64]int
	}
}

func doWork() {}

// Every level in documented order, each paired: clean.
func (db *DB) correctOrder(p *partition) {
	db.maintMu.Lock()
	defer db.maintMu.Unlock()
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	db.router.RLock()
	p.mu.Lock()
	db.liveFiles.Lock()
	db.liveFiles.Unlock()
	p.mu.Unlock()
	db.router.RUnlock()
}

// The PR 2 vlog/GC shape: router looked up while the live-file registry is held.
func (db *DB) gcInversion() {
	db.liveFiles.Lock()
	db.router.RLock() // want `acquires router\.mu while liveFiles\.mu`
	db.router.RUnlock()
	db.liveFiles.Unlock()
}

// Split path grabbing the flush lock after a partition lock.
func (db *DB) splitInversion(p *partition) {
	p.mu.Lock()
	defer p.mu.Unlock()
	db.flushMu.Lock() // want `acquires flushMu while partition\.mu`
	defer db.flushMu.Unlock()
}

// Locked on every path, released on none.
func (db *DB) leaky() {
	db.flushMu.Lock() // want `flushMu is locked here but never unlocked`
	doWork()
}

// Unlock living in a deferred closure still pairs.
func (db *DB) closureUnlock() {
	db.maintMu.Lock()
	defer func() {
		doWork()
		db.maintMu.Unlock()
	}()
	doWork()
}

// A goroutine body is replayed as its own sequence...
func (db *DB) spawn() {
	go func() {
		db.maintMu.Lock()
		defer db.maintMu.Unlock()
		db.flushMu.Lock()
		db.flushMu.Unlock()
	}()
}

// ...so inversions inside it are still caught.
func (db *DB) spawnBad() {
	go func() {
		db.liveFiles.Lock()
		defer db.liveFiles.Unlock()
		db.maintMu.Lock() // want `acquires maintMu while liveFiles\.mu`
		db.maintMu.Unlock()
	}()
}

// One-level call summary: the helper is clean on its own…
func (db *DB) flushLocked() {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	doWork()
}

// …and calling it under maintMu respects the order: clean.
func (db *DB) maintThenFlush() {
	db.maintMu.Lock()
	defer db.maintMu.Unlock()
	db.flushLocked()
}

// But calling it under a partition lock inverts across the call edge.
func (db *DB) crossCallInversion(p *partition) {
	p.mu.Lock()
	defer p.mu.Unlock()
	db.flushLocked() // want `call to flushLocked acquires flushMu while partition\.mu is held`
}

// The hot ring's per-shard mutator lock (classified by field name, like
// the engine's hotring.shard).
type ringShard struct {
	writerMu mutex
	slots    int
}

// writerMu is the last rank: taking it under any core lock is clean.
// This is the split-invalidation shape — ring mutated while the router
// and the parent partition are still held.
func (db *DB) splitInvalidate(p *partition, sh *ringShard) {
	db.router.Lock()
	defer db.router.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	sh.writerMu.Lock()
	defer sh.writerMu.Unlock()
	doWork()
}

// But a ring mutator reaching back into the engine inverts: nothing
// ranked may be acquired while writerMu is held.
func (db *DB) ringReentry(p *partition, sh *ringShard) {
	sh.writerMu.Lock()
	defer sh.writerMu.Unlock()
	p.mu.Lock() // want `acquires partition\.mu while hotring\.writerMu`
	defer p.mu.Unlock()
}

// The NewSnapshot capture shape: the snapshot registry lock is rank 0,
// held across the whole multi-partition capture — router and partition
// read locks nest under it cleanly.
func (db *DB) snapshotCapture(p *partition) {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	db.router.RLock()
	defer db.router.RUnlock()
	p.mu.RLock()
	defer p.mu.RUnlock()
	doWork()
}

// But a teardown path that reaches for the registry after taking a
// maintenance lock inverts: Close must check the registry BEFORE any
// engine lock, or it deadlocks against an in-flight capture.
func (db *DB) teardownInversion() {
	db.maintMu.Lock()
	defer db.maintMu.Unlock()
	db.snapMu.Lock() // want `acquires snapMu while maintMu`
	defer db.snapMu.Unlock()
}

// Intentional handoff to the caller, documented and annotated.
func (db *DB) lockForCaller() {
	//unikv:allow(lockorder) handoff: releaseMaint is the required pair
	db.maintMu.Lock()
}

func (db *DB) releaseMaint() {
	db.maintMu.Unlock()
}

// ---------------------------------------------------------------------------
// Fixed-point depth: the one-level summaries of PR 4 saw exactly one call
// edge; the inversion below hides the acquisition two helpers deep.

// deepInner acquires flushMu (clean on its own)...
func (db *DB) deepInner() {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	doWork()
}

// ...deepMiddle only forwards (no direct acquisition at all)...
func (db *DB) deepMiddle() {
	doWork()
	db.deepInner()
}

// ...so a caller holding partition.mu inverts across TWO call edges: the
// one-level engine was blind here, the fixed-point summary is not.
func (db *DB) deepInversion(p *partition) {
	p.mu.Lock()
	defer p.mu.Unlock()
	db.deepMiddle() // want `call to deepMiddle transitively acquires flushMu \(via deepInner\) while partition\.mu is held`
}

// Mutual recursion converges instead of looping: pingLock and pongLock
// call each other and each acquires one rank; the summaries stabilize and
// the inversion at the call site is still caught.
func (db *DB) pingLock(n int) {
	db.flushMu.Lock()
	db.flushMu.Unlock()
	if n > 0 {
		db.pongLock(n - 1)
	}
}

func (db *DB) pongLock(n int) {
	db.liveFiles.Lock()
	db.liveFiles.Unlock()
	if n > 0 {
		db.pingLock(n - 1)
	}
}

func (db *DB) recursiveInversion(p *partition, sh *ringShard) {
	sh.writerMu.Lock()
	defer sh.writerMu.Unlock()
	db.pongLock(3) // want `call to pongLock acquires liveFiles\.mu while hotring\.writerMu is held` `call to pongLock transitively acquires flushMu \(via pingLock\) while hotring\.writerMu is held`
}

// ---------------------------------------------------------------------------
// Read/write pairing: an Unlock does not release an RLock. The router is
// RLocked here and the write-side Unlock leaves the read hold dangling —
// under PR 4's mode-blind pairing this slipped through.
func (db *DB) mismatchedRelease() {
	db.router.RLock() // want `router\.mu is RLocked here but never RUnlocked`
	doWork()
	db.router.Unlock()
}

// Matching modes pair: clean.
func (db *DB) readThenWrite() {
	db.router.RLock()
	doWork()
	db.router.RUnlock()
	db.router.Lock()
	doWork()
	db.router.Unlock()
}
