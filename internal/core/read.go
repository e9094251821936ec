package core

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"unikv/internal/codec"
	"unikv/internal/memtable"
	"unikv/internal/record"
	"unikv/internal/sorted"
	"unikv/internal/sortedview"
	"unikv/internal/sstable"
	"unikv/internal/vlog"
)

// maxRouteRetries bounds the route→version→covers dance in Get, Scan and
// the write path. A re-route is legitimate only when a concurrent
// split moves a boundary between partitionFor and the look at the
// partition's version; that cannot recur this many times for one key, so
// exhausting the bound means the router is inconsistent (see
// ErrRouterInconsistent) — fail instead of spinning forever.
const maxRouteRetries = 64

// Get returns the value stored for key, or ErrNotFound.
//
// Read path (paper §Design): hot ring (single probe, lock-free) →
// memtable → UnsortedStore via the hash index → SortedStore via
// boundary-key binary search; a pointer record is then dereferenced into
// the value log. A ring miss takes a promotion token BEFORE the tiered
// lookup so the value it reads can be installed without ever serving a
// concurrently overwritten value (see internal/hotring). The lookup runs
// on a pinned version of the partition and takes no partition lock.
func (db *DB) Get(key []byte) ([]byte, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.stats.Gets.Add(1)
	if val, ok := db.hot.Get(key); ok {
		return val, nil
	}
	tok := db.hot.BeginMiss(key)
	// Without the ring there is no frequency signal: every point read stays
	// "warm" so cache admission behaves exactly as before the hot layer.
	warm := tok.Warm || db.hot == nil
	for tries := 0; tries < maxRouteRetries; tries++ {
		p := db.partitionFor(key)
		v := p.acquire()
		if !v.covers(key) {
			v.release()
			db.awaitRoutes()
			continue
		}
		val, err := v.get(key, math.MaxUint64, warm)
		v.release()
		if err == nil && tok.Promote {
			db.hot.Install(tok, key, val)
		}
		// A corruption-classed read failure quarantines the partition:
		// the read still fails the same way, but writes into files the
		// engine can no longer trust stop immediately.
		db.noteReadCorruption(p, err)
		return val, err
	}
	return nil, classified(ErrRouterInconsistent)
}

// get is the tiered lookup of key as of seq (live reads pass the maximum):
// memtable, frozen memtables newest first, UnsortedStore, SortedStore.
// Only the memtables filter by sequence: a version pinned at a sequence
// was captured with every partition's writers excluded, so its tables hold
// nothing newer. warm is the hot ring's cache admission hint for a
// value-log dereference. The caller holds v.
func (v *version) get(key []byte, seq uint64, warm bool) ([]byte, error) {
	if rec, ok := v.mem.GetAtSeq(key, seq); ok {
		return v.resolve(rec, warm)
	}
	for i := len(v.imm) - 1; i >= 0; i-- {
		if rec, ok := v.imm[i].GetAtSeq(key, seq); ok {
			return v.resolve(rec, warm)
		}
	}
	if rec, ok, err := v.uns.Get(key); err != nil {
		return nil, err
	} else if ok {
		return v.resolve(rec, warm)
	}
	if rec, ok, err := v.srt.Get(key); err != nil {
		return nil, err
	} else if ok {
		return v.resolve(rec, warm)
	}
	return nil, ErrNotFound
}

// resolve materializes a record into its user value. warm gates value-cache
// admission on a log read: a key the hot ring has sampled at least twice
// may evict cache residents, a cold one is admitted only into free space.
// The version's hold on its logs keeps the pointed-to segment in place.
func (v *version) resolve(rec record.Record, warm bool) ([]byte, error) {
	switch rec.Kind {
	case record.KindDelete:
		return nil, ErrNotFound
	case record.KindSet:
		return append([]byte(nil), rec.Value...), nil
	case record.KindSetPtr:
		ptr, err := record.DecodePtr(rec.Value)
		if err != nil {
			return nil, err
		}
		// vl.ReadHinted returns a freshly allocated buffer; no further copy
		// is needed.
		return v.p.db.vl.ReadHinted(ptr, warm)
	}
	return nil, codec.ErrCorrupt
}

// KV is one scan result, the caller's to keep or mutate: the engine holds
// no reference to it. The pairs one partition returns share one byte
// region — each slice's capacity ends where it does, so appending to one
// reallocates instead of running into a neighbour — so keeping one pair
// keeps at most about twice the bytes that partition returned alive.
type KV struct {
	Key   []byte
	Value []byte
}

// Scan returns up to limit pairs with start <= key < end, in key order.
// end == nil means no upper bound; limit <= 0 means no count bound (then
// end must be non-nil). The result is the caller's (see KV).
//
// The scan follows the paper: locate the covering partition by boundary
// keys, merge the memtable / UnsortedStore / SortedStore iterators by
// repeated smallest-key selection, then fetch pointed-to values with
// readahead and the parallel fetch pool. Results from consecutive
// partitions are concatenated (ranges are disjoint and ordered, so no
// re-sort is needed). Each partition is read from a pinned version with no
// partition lock held, so writes proceed beside the scan and may or may not
// show in it; a Snapshot scans one point in time.
func (db *DB) Scan(start, end []byte, limit int) ([]KV, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.stats.Scans.Add(1)
	sc := getScanner(db, end, limit)
	defer sc.release()
	cursor := start
	retries := 0
	for {
		p := db.partitionFor(cursor)
		v := p.acquire()
		if !v.covers(cursor) {
			v.release()
			if retries++; retries >= maxRouteRetries {
				return nil, classified(ErrRouterInconsistent)
			}
			db.awaitRoutes()
			continue
		}
		retries = 0 // advancing to the next partition resets the budget
		err := sc.scan(v, cursor, math.MaxUint64)
		next := v.upper
		v.release()
		if err != nil {
			db.noteReadCorruption(p, err)
			return nil, err
		}
		if sc.done(next) {
			return sc.out, nil
		}
		cursor = next
	}
}

// scanView returns the cross-table sorted view over v's unsorted tables
// (one iterator that binary-searches once and walks globally ordered
// entries — the REMIX optimization, see internal/sortedview), or nil to
// have the scan merge one iterator per table: the view is off
// (SortedViewOff), or recovery left it unbuilt and v is not the version to
// build it for. Recovery reads no table for the view's sake, so the first
// scan of the partition builds it — for the version it holds, off the lock —
// and publishes a successor that carries it, unless the store moved on
// meanwhile. One scan builds at a time: a scan that finds the build taken
// merges per table beside it instead of reading every table a second time.
// A failed build leaves the next scan to retry.
func (v *version) scanView() *sortedview.View {
	p := v.p
	if !v.uns.NeedsView() || p.cur.Load().uns != v.uns || !p.viewBuilding.CompareAndSwap(false, true) {
		return v.uns.View()
	}
	defer p.viewBuilding.Store(false)
	if p.cur.Load().uns != v.uns {
		return nil // built and published between the look and the claim
	}
	view, err := v.uns.BuildView()
	if err != nil {
		return nil
	}
	p.mu.Lock()
	if cur := p.cur.Load(); cur.uns == v.uns {
		next := cur.successor()
		next.uns = cur.uns.WithView(view)
		p.publish(next)
	}
	p.mu.Unlock()
	return view
}

// scanner accumulates one Scan call's result across partitions. It hands
// the caller the result slice and one byte region per partition (fill); the
// rest — iterators, fetch and unit lists, scratch — is pooled (scanners).
type scanner struct {
	db    *DB
	end   []byte
	limit int // > 0
	out   []KV

	// The current partition's keys and inline values, back to back until
	// fill moves them into its region; till then its pairs alias buf.
	buf     []byte
	fetches []pendingFetch // the current partition's pointer records
	units   []readUnit
	region  []byte // the current partition's, while fill reads into it

	// Parallel fill: each pool job claims a chunk, reading sparse runs into
	// spans[chunk].
	spans   [][]byte
	errs    []error
	claimed atomic.Int32
	wg      sync.WaitGroup
	job     func()

	// Iterators, reset onto each partition's version in turn.
	memIts []memtable.Iterator
	tabIts []sstable.Iterator
	viewIt sortedview.Iter
	srtIt  sorted.Iterator
	iters  []recIter
	merge  mergeIter
}

// pendingFetch is one scan result awaiting its value-log dereference.
type pendingFetch struct {
	idx int
	ptr record.ValuePtr
}

// byLogPos orders fetches by (log, offset), packed into one comparison.
func byLogPos(a, b pendingFetch) int {
	return cmp.Compare(uint64(a.ptr.LogNum)<<32|uint64(a.ptr.Offset), uint64(b.ptr.LogNum)<<32|uint64(b.ptr.Offset))
}

const (
	// scanPresize caps how many result slots a scan reserves up front: the
	// limit is the caller's bound, not a promise the range holds that many.
	scanPresize = 512
	// scanKeepMax bounds the scratch a pooled scanner keeps (bytes, a list
	// entry counted as 32): a scanner a large scan grew past it is dropped.
	scanKeepMax = 4 << 20
)

// scanners recycles scanners; a pooled one references nothing (release).
var scanners = sync.Pool{New: func() any { return new(scanner) }}

func getScanner(db *DB, end []byte, limit int) *scanner {
	sc := scanners.Get().(*scanner)
	if sc.job == nil {
		sc.job = sc.readChunk
	}
	sc.db, sc.end, sc.limit = db, end, limit
	if limit <= 0 {
		sc.limit = math.MaxInt // the scan still terminates at end or the key space's
	} else {
		sc.out = make([]KV, 0, min(limit, scanPresize))
	}
	return sc
}

// release drops the scanner's references to the engine and the result,
// which the caller has taken, and pools it unless it outgrew scanKeepMax.
func (sc *scanner) release() {
	clear(sc.memIts[:cap(sc.memIts)])
	clear(sc.tabIts[:cap(sc.tabIts)])
	clear(sc.iters[:cap(sc.iters)])
	(*sortedview.View)(nil).ResetIterator(&sc.viewIt)
	sc.srtIt.Reset(nil)
	sc.merge.Reset(nil)
	sc.db, sc.end, sc.out = nil, nil, nil
	kept := cap(sc.buf) + 32*(cap(sc.fetches)+cap(sc.units))
	for _, s := range sc.spans[:cap(sc.spans)] {
		kept += cap(s)
	}
	if kept <= scanKeepMax {
		scanners.Put(sc)
	}
}

// done reports whether the scan is complete after a partition whose upper
// bound is next.
func (sc *scanner) done(next []byte) bool {
	return len(sc.out) >= sc.limit || next == nil ||
		(sc.end != nil && codec.Compare(next, sc.end) >= 0)
}

// mergeOver resets the iterators onto v's tiers — memtable, frozen
// memtables newest first, the sorted view (or one iterator per unsorted
// table without one), the sorted run — and returns their merge.
func (sc *scanner) mergeOver(v *version) *mergeIter {
	sc.memIts = slices.Grow(sc.memIts[:0], 1+len(v.imm))[:1+len(v.imm)]
	sc.memIts[0].Reset(v.mem)
	for i, m := range v.imm {
		sc.memIts[len(v.imm)-i].Reset(m)
	}
	sc.iters = sc.iters[:0]
	for i := range sc.memIts {
		sc.iters = append(sc.iters, &sc.memIts[i])
	}
	if view := v.scanView(); view != nil {
		view.ResetIterator(&sc.viewIt)
		sc.iters = append(sc.iters, &sc.viewIt)
	} else {
		tables := v.uns.Tables()
		sc.tabIts = slices.Grow(sc.tabIts[:0], len(tables))[:len(tables)]
		for i, tb := range tables {
			sc.tabIts[i].Reset(tb.Reader)
			sc.iters = append(sc.iters, &sc.tabIts[i])
		}
	}
	sc.srtIt.Reset(v.srt)
	sc.iters = append(sc.iters, &sc.srtIt)
	sc.merge.Reset(sc.iters)
	return &sc.merge
}

// scan merges the iterators of v, which the caller holds, from start and
// appends the pairs visible at seq (the newest version of each key
// sequenced at or below it; live scans pass the maximum) until the scan's
// end or limit, then fills in their bytes — v's hold on its logs keeps the
// pointed-to values in place.
func (sc *scanner) scan(v *version, start []byte, seq uint64) error {
	m := sc.mergeOver(v)
	base := len(sc.out)
	sc.buf, sc.fetches = sc.buf[:0], sc.fetches[:0]
	// lastKey is the key most recently decided. It aliases the record, whose
	// bytes v keeps in place.
	var lastKey []byte
	haveLast := false
	for ok := m.Seek(start); ok; ok = m.Next() {
		rec := m.Record()
		if sc.end != nil && codec.Compare(rec.Key, sc.end) >= 0 {
			break
		}
		if rec.Seq > seq {
			continue // written after the pin: invisible, and must not shadow
		}
		if haveLast && codec.Compare(rec.Key, lastKey) == 0 {
			continue
		}
		lastKey, haveLast = rec.Key, true
		val := rec.Value
		switch rec.Kind {
		case record.KindDelete:
			continue
		case record.KindSet: // the value is inline
		case record.KindSetPtr:
			ptr, err := record.DecodePtr(rec.Value)
			if err != nil {
				return err
			}
			sc.fetches = append(sc.fetches, pendingFetch{idx: len(sc.out), ptr: ptr})
			val = nil
		default:
			return codec.ErrCorrupt
		}
		k := len(sc.buf)
		sc.buf = append(append(sc.buf, rec.Key...), val...)
		sc.out = append(sc.out, KV{Key: sc.buf[k : k+len(rec.Key)], Value: sc.buf[k+len(rec.Key):]})
		if len(sc.out) >= sc.limit {
			break
		}
	}
	if err := m.Err(); err != nil {
		return err
	}
	return sc.fill(sc.out[base:])
}

// Tuning for the scan readahead (plan).
const (
	// prefetchRunGap is the largest hole between two consecutive values
	// (sorted by offset, same log) that still extends a contiguous run —
	// roughly four data blocks of dead or foreign bytes are cheaper to read
	// through than to split the span over.
	prefetchRunGap = 16 << 10
	// prefetchMaxSpan caps one run's span, and so the scratch a sparse run
	// is read into.
	prefetchMaxSpan = 1 << 20
	// fetchChunk is how many read units one fetch-pool job takes, and the
	// unit count up to which a scan reads inline — dispatch would cost
	// more than it saves.
	fetchChunk = 16
)

// readUnit is one read of fetches[from:to], whose frames span log bytes
// [lo, hi): straight into the region at at, values aliasing it, or when
// sparse (values under half the span) into scratch, values copied to at.
type readUnit struct {
	from, to int
	lo, hi   int64
	at       int
	sparse   bool
}

// fill moves the staged keys and inline values of pairs, the partition's,
// into one region sized for every byte the partition returns, then reads
// the pointed-to values into the rest of it.
//
// Readahead (paper: readahead from the first key's value, made adaptive):
// the pointers are sorted by log and offset and cut into read units —
// maximal contiguous runs and leftover single frames, each read once as a
// span — that bypass the value cache, so a range query cannot evict the
// point-read hot set. Units go to the fixed worker pool in chunks (paper: a
// fixed number of value addresses is inserted into the worker queue and
// sleeping threads fetch them in parallel).
func (sc *scanner) fill(pairs []KV) error {
	sc.region = make([]byte, sc.plan(len(sc.buf)))
	copy(sc.region, sc.buf)
	at := 0
	for i := range pairs {
		v := at + len(pairs[i].Key)
		end := v + len(pairs[i].Value)
		pairs[i] = KV{Key: sc.region[at:v:v], Value: sc.region[v:end:end]}
		at = end
	}
	err := sc.read()
	sc.region = nil
	return err
}

// plan cuts the pending fetches into read units, placing them in the region
// after its first n bytes, and returns the region's size. A run grows while
// the next frame is in the same log, starts within prefetchRunGap of the
// run's end, and keeps the span under prefetchMaxSpan; DisableScanPrefetch
// makes every frame its own unit.
func (sc *scanner) plan(n int) int {
	f := sc.fetches
	runs := !sc.db.opts.exp.DisableScanPrefetch
	if runs && !slices.IsSortedFunc(f, byLogPos) {
		slices.SortFunc(f, byLogPos)
	}
	sc.units = sc.units[:0]
	for from := 0; from < len(f); {
		u := readUnit{from: from, to: from + 1, at: n}
		u.lo, u.hi = frameExtent(f[from].ptr)
		values := int64(f[from].ptr.Length)
		for ; runs && u.to < len(f); u.to++ {
			off, end := frameExtent(f[u.to].ptr)
			if f[u.to].ptr.LogNum != f[from].ptr.LogNum || off-u.hi > prefetchRunGap || end-u.lo > prefetchMaxSpan {
				break
			}
			u.hi = max(u.hi, end)
			values += int64(f[u.to].ptr.Length)
		}
		size := u.hi - u.lo
		if u.sparse = 2*values < size; u.sparse {
			size = values
		}
		n += int(size)
		sc.units = append(sc.units, u)
		from = u.to
	}
	return n
}

// frameExtent returns the log byte range [off, end) of ptr's frame.
func frameExtent(ptr record.ValuePtr) (off, end int64) {
	off = int64(ptr.Offset)
	return off, off + vlog.HeaderLen + int64(ptr.Length)
}

// read reads every unit, fetchChunk to a chunk: inline when there is one
// chunk or DisableScanParallel is set, else a fetch-pool job per chunk.
func (sc *scanner) read() error {
	chunks := (len(sc.units) + fetchChunk - 1) / fetchChunk
	sc.spans = slices.Grow(sc.spans[:0], chunks)[:chunks]
	if sc.db.opts.exp.DisableScanParallel || chunks <= 1 {
		return sc.readUnits(sc.units, 0)
	}
	sc.errs = slices.Grow(sc.errs[:0], chunks)[:chunks]
	sc.claimed.Store(0)
	sc.wg.Add(chunks)
	for range chunks {
		sc.db.pool.run(sc.job)
	}
	sc.wg.Wait()
	var first error
	for _, err := range sc.errs {
		first = cmp.Or(first, err)
	}
	clear(sc.errs)
	return first
}

// readChunk is a fetch-pool job: it reads the next unclaimed chunk.
func (sc *scanner) readChunk() {
	defer sc.wg.Done()
	c := int(sc.claimed.Add(1)) - 1
	sc.errs[c] = sc.readUnits(sc.units[c*fetchChunk:min((c+1)*fetchChunk, len(sc.units))], c)
}

// readUnits reads units as chunk c and fills in their values. A sparse run
// is read into spans[c] and its values copied to the region, so that a
// caller who keeps a value never pins much more than the scan returned. A
// frame that does not verify inside its span (a short read at the log tail,
// a flipped byte) takes the per-value ReadUncached, whose error is the
// scan's.
func (sc *scanner) readUnits(units []readUnit, c int) error {
	vl := sc.db.vl
	for _, u := range units {
		run := sc.fetches[u.from:u.to]
		n := int(u.hi - u.lo)
		dst := sc.region[u.at:]
		if u.sparse {
			sc.spans[c] = slices.Grow(sc.spans[c][:0], n)
			dst = sc.spans[c]
		}
		span, err := vl.ReadSpan(run[0].ptr.LogNum, u.lo, dst[:n:n])
		if err != nil {
			return err
		}
		if len(run) > 1 {
			sc.db.stats.ScanPrefetchIssued.Add(1)
		}
		at, verified := u.at, false
		for _, f := range run {
			val, err := vlog.SpanValue(span, u.lo, f.ptr)
			if err != nil {
				if val, err = vl.ReadUncached(f.ptr); err != nil {
					return err
				}
			} else {
				verified = true
				if u.sparse {
					end := at + copy(sc.region[at:], val)
					val, at = sc.region[at:end:end], end
				}
			}
			sc.out[f.idx].Value = val
		}
		if len(run) > 1 && !verified {
			sc.db.stats.ScanPrefetchWasted.Add(1)
		}
	}
	return nil
}
