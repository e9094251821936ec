package core

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"unikv/internal/arena"
	"unikv/internal/codec"
	"unikv/internal/record"
	"unikv/internal/sortedview"
	"unikv/internal/vlog"
)

// maxRouteRetries bounds the route→version→covers dance in Get, Scan,
// apply, and ApplyBatch. A re-route is legitimate only when a concurrent
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

// KV is one scan result. The pairs of one Scan result belong to the
// caller, to keep or mutate: the engine holds no reference to them. Keys
// and values of the same result may share backing arrays — each slice's
// capacity ends where it does, so appending to one reallocates instead of
// running into a neighbour — which means keeping one pair alive can keep
// the memory of others (at most about twice the bytes the scan returned).
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
	sc := newScanner(db, end, limit)
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

// scanner accumulates one Scan call's result across partitions and owns
// every buffer the result points into.
type scanner struct {
	db    *DB
	end   []byte
	limit int // > 0
	out   []KV
	// mem holds the result's keys and inline values.
	mem     arena.Bytes
	fetches []pendingFetch // the current partition's pointer records
}

// pendingFetch is one scan result awaiting its value-log dereference.
type pendingFetch struct {
	idx int
	ptr record.ValuePtr
}

const (
	// scanPresize caps how many result slots a scan reserves up front: the
	// limit is the caller's bound, not a promise the range holds that many.
	scanPresize = 512
	// scanArenaChunk is the arena's allocation unit — and so the most a
	// caller pins by keeping a single key of a result. A slice over a
	// quarter of it gets its own allocation.
	scanArenaChunk = 4 << 10
)

func newScanner(db *DB, end []byte, limit int) *scanner {
	sc := &scanner{db: db, end: end, limit: limit, mem: arena.New(scanArenaChunk, scanArenaChunk)}
	if limit <= 0 {
		sc.limit = math.MaxInt // the scan still terminates at end or the key space's
	} else {
		n := min(limit, scanPresize)
		sc.out = make([]KV, 0, n)
		sc.fetches = make([]pendingFetch, 0, n)
	}
	return sc
}

// done reports whether the scan is complete after a partition whose upper
// bound is next.
func (sc *scanner) done(next []byte) bool {
	return len(sc.out) >= sc.limit || next == nil ||
		(sc.end != nil && codec.Compare(next, sc.end) >= 0)
}

// scan merges the iterators of v, which the caller holds, from start and
// appends the pairs visible at seq (the newest version of each key
// sequenced at or below it; live scans pass the maximum) until the scan's
// end or limit, then fills in the pointed-to values — v's hold on its logs
// keeps them in place.
func (sc *scanner) scan(v *version, start []byte, seq uint64) error {
	iters := make([]recIter, 0, len(v.imm)+v.unsTables+2)
	iters = append(iters, v.mem.NewIterator())
	for i := len(v.imm) - 1; i >= 0; i-- {
		iters = append(iters, v.imm[i].NewIterator())
	}
	if view := v.scanView(); view != nil {
		iters = append(iters, view.NewIterator())
	} else {
		for _, tb := range v.uns.Tables() {
			iters = append(iters, tb.Reader.NewIterator())
		}
	}
	iters = append(iters, v.srt.NewIterator())
	m := newMergeIter(iters)

	sc.fetches = sc.fetches[:0]
	// lastKey is the key most recently decided: it aliases the pair just
	// appended, or tombstone, the copy of a deleted key.
	var lastKey, tombstone []byte
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
		haveLast = true
		switch rec.Kind {
		case record.KindDelete:
			tombstone = append(tombstone[:0], rec.Key...)
			lastKey = tombstone
			continue
		case record.KindSet:
			sc.out = append(sc.out, KV{Key: sc.mem.Copy(rec.Key), Value: sc.mem.Copy(rec.Value)})
		case record.KindSetPtr:
			ptr, err := record.DecodePtr(rec.Value)
			if err != nil {
				return err
			}
			sc.fetches = append(sc.fetches, pendingFetch{idx: len(sc.out), ptr: ptr})
			sc.out = append(sc.out, KV{Key: sc.mem.Copy(rec.Key)})
		default:
			return codec.ErrCorrupt
		}
		if len(sc.out) >= sc.limit {
			break
		}
		lastKey = sc.out[len(sc.out)-1].Key
	}
	if err := m.Err(); err != nil {
		return err
	}
	return sc.fill()
}

// Tuning for the scan readahead (spanRuns).
const (
	// prefetchRunGap is the largest hole between two consecutive values
	// (sorted by offset, same log) that still extends a contiguous run —
	// roughly four data blocks of dead or foreign bytes are cheaper to read
	// through than to split the span over.
	prefetchRunGap = 16 << 10
	// prefetchMaxSpan caps one run's span so a single read cannot allocate
	// an unbounded buffer.
	prefetchMaxSpan = 1 << 20
	// prefetchMinRun is the smallest pointer count worth a span (a
	// singleton reads exactly its own bytes either way).
	prefetchMinRun = 2
	// fetchChunk is how many read units one fetch-pool job takes, and the
	// unit count up to which a scan reads inline — dispatch would cost
	// more than it saves.
	fetchChunk = 16
)

// fill dereferences the pending pointers into sc.out.
//
// Readahead (paper: readahead from the first key's value, made adaptive):
// the pointers are sorted by log and offset and cut into read units —
// maximal contiguous runs, each read once as a span the values then alias,
// and leftover single pointers, each a per-value read. So a scan whose
// values are key-ordered in several logs (fresh merges interleaved with GC
// rewrites) gets one read per dense stretch while scattered singletons
// read exactly their own bytes. Scan traffic bypasses the value cache so
// one large range query cannot evict the point-read hot set.
//
// Units go to the fixed worker pool in chunks (paper: a fixed number of
// value addresses is inserted into the worker queue and sleeping threads
// fetch them in parallel).
func (sc *scanner) fill() error {
	if len(sc.fetches) == 0 {
		return nil
	}
	var units [][]pendingFetch
	if sc.db.opts.DisableScanPrefetch {
		units = make([][]pendingFetch, len(sc.fetches))
		for i := range units {
			units[i] = sc.fetches[i : i+1]
		}
	} else {
		slices.SortFunc(sc.fetches, func(a, b pendingFetch) int {
			if c := cmp.Compare(a.ptr.LogNum, b.ptr.LogNum); c != 0 {
				return c
			}
			return cmp.Compare(a.ptr.Offset, b.ptr.Offset)
		})
		units = spanRuns(sc.fetches)
	}
	if sc.db.opts.DisableScanParallel || len(units) <= fetchChunk {
		return sc.readUnits(units)
	}
	nChunks := (len(units) + fetchChunk - 1) / fetchChunk
	var wg sync.WaitGroup
	errs := make([]error, nChunks)
	wg.Add(nChunks)
	for c := 0; c < nChunks; c++ {
		c := c
		chunk := units[c*fetchChunk : min((c+1)*fetchChunk, len(units))]
		sc.db.pool.run(func() {
			defer wg.Done()
			errs[c] = sc.readUnits(chunk)
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// frameExtent returns the log byte range [off, end) of ptr's frame.
func frameExtent(ptr record.ValuePtr) (off, end int64) {
	off = int64(ptr.Offset)
	return off, off + vlog.HeaderLen + int64(ptr.Length)
}

// spanRuns cuts fetches, sorted by (log, offset), into maximal runs: the
// next frame extends the run while it is in the same log, starts within
// prefetchRunGap of the run's end, and keeps the span under
// prefetchMaxSpan.
func spanRuns(fetches []pendingFetch) [][]pendingFetch {
	var runs [][]pendingFetch
	lo := 0
	start, hi := frameExtent(fetches[0].ptr)
	for i := 1; i < len(fetches); i++ {
		off, end := frameExtent(fetches[i].ptr)
		if fetches[i].ptr.LogNum == fetches[lo].ptr.LogNum &&
			off-hi <= prefetchRunGap && end-start <= prefetchMaxSpan {
			hi = max(hi, end)
			continue
		}
		runs = append(runs, fetches[lo:i])
		lo, start, hi = i, off, end
	}
	return append(runs, fetches[lo:])
}

func (sc *scanner) readUnits(units [][]pendingFetch) error {
	for _, u := range units {
		if err := sc.readUnit(u); err != nil {
			return err
		}
	}
	return nil
}

// readUnit fills in the values of one read unit. A run is read once and
// its values alias the span buffer, unless under half the span is values:
// then they are copied into one right-sized buffer, so that a caller who
// keeps a value never pins much more than the scan returned. A frame that
// does not verify inside the span (a short read at the log tail, a flipped
// byte) takes the per-value read, whose error is the scan's.
func (sc *scanner) readUnit(run []pendingFetch) error {
	vl := sc.db.vl
	if len(run) < prefetchMinRun {
		for _, f := range run {
			val, err := vl.ReadUncached(f.ptr)
			if err != nil {
				return err
			}
			sc.out[f.idx].Value = val
		}
		return nil
	}
	lo, hi := frameExtent(run[0].ptr)
	var values int64
	for _, f := range run {
		_, end := frameExtent(f.ptr)
		hi = max(hi, end)
		values += int64(f.ptr.Length)
	}
	span, err := vl.ReadSpan(run[0].ptr.LogNum, lo, hi-lo)
	if err != nil {
		return err
	}
	sc.db.stats.ScanPrefetchIssued.Add(1)
	sparse := 2*values < hi-lo
	var dense []byte // the copy target of a sparse run
	if sparse {
		dense = make([]byte, 0, values)
	}
	verified := false
	for _, f := range run {
		val, err := vlog.SpanValue(span, lo, f.ptr)
		if err != nil {
			if val, err = vl.ReadUncached(f.ptr); err != nil {
				return err
			}
		} else {
			verified = true
			if sparse {
				n := len(dense)
				dense = append(dense, val...)
				val = dense[n:len(dense):len(dense)]
			}
		}
		sc.out[f.idx].Value = val
	}
	if !verified {
		sc.db.stats.ScanPrefetchWasted.Add(1)
	}
	return nil
}
