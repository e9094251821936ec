// Fixture: copy-on-write discipline around atomic.Pointer fields. The bad
// shapes replay the PR 8 pre-fix bug (a snapshot state published before its
// sequence field was final) and the mutate-after-Load race.
package pub

import "sync/atomic"

type state struct {
	seq   uint64
	count int
	tick  atomic.Int64 // the sanctioned post-publish channel (hot ring freq shape)
	tags  []string
}

type box struct {
	cur   atomic.Pointer[state]
	slots []atomic.Pointer[state]
}

func source() *state { return &state{} }

// Build fully, then publish: clean.
func (b *box) publishClean(seq uint64) {
	s := &state{seq: seq, count: 1}
	s.tags = append(s.tags, "fresh")
	b.cur.Store(s)
}

// The PR 8 shape: published with a stale sequence, "fixed up" after the
// Store — a concurrent reader between the two lines observes the
// out-of-order value.
func (b *box) publishTornSeq(seq uint64) {
	s := &state{count: 1}
	b.cur.Store(s)
	s.seq = seq // want `mutation of s, published via b\.cur\.Store`
}

// Swap publishes the same way.
func (b *box) swapTorn(i int, seq uint64) {
	s := &state{}
	old := b.slots[i].Swap(s)
	s.seq = seq // want `mutation of s, published via b\.slots\[\.\.\.\]\.Swap`
	_ = old
}

// CompareAndSwap's NEW value is the published one (the degradedState shape
// — built fully before the CAS is clean).
func (b *box) casClean(s *state) bool {
	s.count = 1
	return b.cur.CompareAndSwap(nil, s)
}

func (b *box) casTorn(s *state) bool {
	ok := b.cur.CompareAndSwap(nil, s)
	s.count++ // want `mutation of s, published via b\.cur\.CompareAndSwap`
	return ok
}

// A loaded value is shared with every reader: mutating it in place races.
func (b *box) loadMutate() {
	v := b.cur.Load()
	if v == nil {
		return
	}
	v.count++ // want `mutation of v, loaded from b\.cur\.Load`
}

func (b *box) loadMutateField(seq uint64) {
	v := b.cur.Load()
	v.seq = seq // want `mutation of v, loaded from b\.cur\.Load`
}

// Reading a loaded value and calling methods on an atomic field of it are
// fine (the hot ring touches entry.freq after publish — that field is
// atomic precisely so it can be).
func (b *box) loadReadOnly() (uint64, int64) {
	v := b.cur.Load()
	if v == nil {
		return 0, 0
	}
	v.tick.Add(1)
	return v.seq, v.tick.Load()
}

// The checker is deliberately strict about rebinding: once a variable held
// a published value, mutations through it stay flagged even after a rebind
// (clearing the taint on rebind would miss aliased paths). Use a fresh
// variable for private scratch values.
func (b *box) loadRebindStrict() uint64 {
	v := b.cur.Load()
	_ = v
	v = source()
	v.seq = 1 // want `mutation of v, loaded from b\.cur\.Load`
	return v.seq
}

// ---------------------------------------------------------------------------
// Interprocedural: passing a shared value to a mutating helper is the same
// mutation, at any forwarding depth.

func scrub(s *state) {
	s.count = 0
}

func scrubDeep(s *state) {
	scrub(s)
}

func report(s *state) int { // read-only helper: no summary entry
	return s.count
}

func (b *box) loadScrub() {
	v := b.cur.Load()
	scrubDeep(v) // want `mutation of v, loaded from b\.cur\.Load`
	_ = report(v)
}

func (b *box) storeScrub() {
	s := &state{}
	b.cur.Store(s)
	scrub(s) // want `mutation of s, published via b\.cur\.Store`
}

// ---------------------------------------------------------------------------
// Rule 1: the pointer word itself is only touched atomically.

func (b *box) wordCopied() {
	tmp := b.cur // want `non-atomic access to atomic\.Pointer value b\.cur`
	_ = tmp.Load()
}

func (b *box) wordOverwritten() {
	b.cur = atomic.Pointer[state]{} // want `non-atomic access to atomic\.Pointer value b\.cur`
}

// The escape hatch: single-threaded construction, justified and annotated
// (the comment suppresses every diagnostic on the next line — here both the
// LHS overwrite and the RHS copy).
func (b *box) wordResetBeforeServing(other *box) {
	//unikv:allow(atomicpublish) called before any reader goroutine starts
	b.cur = other.cur
}

func (b *box) wordMethods(s *state) {
	b.cur.Store(s)      // fine
	_ = b.cur.Load()    // fine
	p := &b.cur         // fine: address-of preserves atomicity
	_ = p.Load()        // fine: through the pointer
	_ = b.slots[0].Load() // fine: indexed element receiver
}

// A type with a registered publish helper (the partition version shape):
// only the helper stores the pointer; everyone may Load.
type version struct {
	tables int
	bytes  int // a gauge the helper fills in
}

type part struct {
	cur atomic.Pointer[version]
}

func (p *part) publish(next *version) {
	next.bytes = next.tables * 4096
	p.cur.Store(next)
}

func (p *part) addTable() {
	p.publish(&version{tables: p.cur.Load().tables + 1})
}

func (p *part) bypass(next *version) {
	p.cur.Store(next) // want `p\.cur\.Store outside publish: a version is published only through its helper`
}

func (p *part) bypassCAS(old, next *version) bool {
	return p.cur.CompareAndSwap(old, next) // want `p\.cur\.CompareAndSwap outside publish`
}

// ---------------------------------------------------------------------------
// An atomic.Pointer to a slice (the router order shape): the published
// slice is replaced by a copy, never edited, and a loader function's
// result is as shared as the Load it returns.

type node struct{ lower string }

type router struct {
	routes atomic.Pointer[[]*node]
}

func (r *router) nodes() []*node { return *r.routes.Load() }

// Copy, insert, publish: clean.
func (r *router) insertClean(pos int, n *node) {
	old := r.nodes()
	next := make([]*node, 0, len(old)+1)
	next = append(append(append(next, old[:pos]...), n), old[pos:]...)
	r.routes.Store(&next)
}

func (r *router) insertInPlace(pos int, n *node) {
	old := r.nodes()
	old[pos] = n // want `mutation of old, loaded from r\.routes\.Load by nodes`
}

func (r *router) derefInPlace(n *node) {
	cur := *r.routes.Load()
	cur[0] = n // want `mutation of cur, loaded from r\.routes\.Load`
}

func (r *router) editAfterPublish(n *node) {
	next := []*node{n}
	r.routes.Store(&next)
	next[0] = nil // want `mutation of next, published via r\.routes\.Store`
}
