// Fixture: acquired references (a pinned partition version, NewSnapshot)
// must be released on every error path. Stand-ins mirror the engine's
// shapes: classification is by name, so local types with acquire/release
// behave like the real ones.
package core

import "errors"

type version struct{ refs int }

func (v *version) release() { v.refs-- }

type partition struct{ cur *version }

func (p *partition) acquire() *version { p.cur.refs++; return p.cur }

type Snapshot struct{ db *DB }

func (s *Snapshot) Close() error { return nil }

type DB struct {
	parts []*partition
	held  []*version
}

func (db *DB) NewSnapshot() (*Snapshot, error) {
	return &Snapshot{db: db}, nil
}

func (db *DB) step() error { return errors.New("boom") }

// ---------------------------------------------------------------------------
// partition.acquire / version.release.

// The motivating bug: the pin leaks when the step between acquire and
// release fails — the version's count never drops, so every table and
// value log it names stays on disk forever.
func (db *DB) pinLeaky(p *partition) error {
	v := p.acquire()
	if err := db.step(); err != nil {
		return err // want `error return leaks handle v`
	}
	v.release()
	return nil
}

// Releasing before the error return is clean.
func (db *DB) pinReleased(p *partition) error {
	v := p.acquire()
	if err := db.step(); err != nil {
		v.release()
		return err
	}
	v.release()
	return nil
}

// A deferred release protects every path.
func (db *DB) pinDeferred(p *partition) error {
	v := p.acquire()
	defer v.release()
	if err := db.step(); err != nil {
		return err
	}
	return nil
}

// Releasing another handle does not discharge this one.
func (db *DB) pinWrongHandle(p, q *partition) error {
	v := p.acquire()
	w := q.acquire()
	w.release()
	if err := db.step(); err != nil {
		return err // want `error return leaks handle v`
	}
	v.release()
	return nil
}

// Success returns transfer ownership (the NewSnapshot shape) and are never
// flagged.
func (db *DB) pinTransfer(p *partition) error {
	v := p.acquire()
	db.held = append(db.held, v)
	return nil
}

// ---------------------------------------------------------------------------
// Snapshot handles. The error return guarding the constructor itself is
// exempt — a failed NewSnapshot acquired nothing — but later error returns
// must Close the handle.

func (db *DB) backupClean() error {
	s, err := db.NewSnapshot()
	if err != nil {
		return err
	}
	defer s.Close()
	if err := db.step(); err != nil {
		return err
	}
	return nil
}

func (db *DB) backupLeaky() error {
	s, err := db.NewSnapshot()
	if err != nil {
		return err
	}
	if err := db.step(); err != nil {
		return err // want `error return leaks handle s`
	}
	return s.Close()
}

// ---------------------------------------------------------------------------
// Interprocedural: a void helper's acquisitions belong to its caller, and a
// releasing helper discharges them — at any depth via the fixed-point
// summaries. (NewSnapshot's would NOT travel: it returns the handle that
// owns them.)

func (db *DB) pinAll() {
	for _, p := range db.parts {
		db.held = append(db.held, p.acquire())
	}
}

func (db *DB) releaseAll() {
	for _, v := range db.held {
		v.release()
	}
	db.held = nil
}

// pinAllDeep hides the acquisition one level further down.
func (db *DB) pinAllDeep() {
	db.pinAll()
}

func (db *DB) captureLeaky() error {
	db.pinAllDeep()
	if err := db.step(); err != nil {
		return err // want `error return leaks handle via pinAllDeep`
	}
	db.releaseAll()
	return nil
}

func (db *DB) captureClean() error {
	db.pinAll()
	if err := db.step(); err != nil {
		db.releaseAll()
		return err
	}
	db.releaseAll()
	return nil
}

// A deferred releasing helper protects like a direct defer.
func (db *DB) captureDeferred() error {
	db.pinAll()
	defer db.releaseAll()
	if err := db.step(); err != nil {
		return err
	}
	return nil
}

// A fallible callee keeps its acquisitions to itself: its success return
// transferred them into shared state, and its own error paths are checked in
// its own body — the caller's later error returns hold nothing.
func (db *DB) commitPin(p *partition) error {
	v := p.acquire()
	if err := db.step(); err != nil {
		v.release()
		return err
	}
	db.held = append(db.held, v)
	return nil
}

func (db *DB) commitCaller(p *partition) error {
	if err := db.commitPin(p); err != nil {
		return err
	}
	if err := db.step(); err != nil {
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// The escape hatch: ownership recorded somewhere the checker cannot see.
func (db *DB) adoptLeaky(p *partition) error {
	v := p.acquire()
	db.held = append(db.held, v)
	if err := db.step(); err != nil {
		//unikv:allow(refpair) pin adopted by the registry before step
		return err
	}
	return nil
}
