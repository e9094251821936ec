package lsm

import (
	"math"
	"slices"

	"unikv/internal/codec"
	"unikv/internal/memtable"
	"unikv/internal/mergeiter"
	"unikv/internal/record"
	"unikv/internal/sstable"
	"unikv/internal/vfs"
)

// flushLocked writes the memtable as a new one-table L0 run, then starts
// a fresh WAL.
func (db *DB) flushLocked() error {
	mem := mergeiter.NewDedup(mergeiter.New([]mergeiter.RecIter{db.mem.NewIterator()}))
	r, err := db.writeRun(mem, math.MaxInt64, false)
	if err != nil {
		return err
	}
	db.levels[0] = append([]run{r}, db.levels[0]...)
	db.mem = memtable.New()
	db.flushes.Add(1)
	return db.rotateWALLocked()
}

// writeRun writes the stream's records as a run of tables, cutting a
// table once its records reach limit bytes and skipping tombstones when
// dropTombstones is set.
func (db *DB) writeRun(it *mergeiter.Dedup, limit int64, dropTombstones bool) (run, error) {
	var (
		out  run
		f    vfs.File
		b    *sstable.Builder
		num  uint64
		size int64
	)
	finish := func() error {
		props, err := b.Finish()
		b = nil
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		t, err := db.openTable(num, props)
		if err != nil {
			return err
		}
		out = append(out, t)
		return nil
	}
	for ok := it.First(); ok; ok = it.Next() {
		rec := it.Record()
		if rec.Kind == record.KindDelete && dropTombstones {
			continue
		}
		if b == nil {
			num = db.nextFile
			db.nextFile++
			var err error
			if f, err = db.fs.Create(db.tableName(num)); err != nil {
				return nil, err
			}
			b = sstable.NewBuilder(f, sstable.BuilderOptions{
				BloomBitsPerKey: db.cfg.BloomBitsPerKey,
				BlockSize:       db.cfg.BlockSize,
			})
			size = 0
		}
		b.Add(rec)
		size += int64(len(rec.Key) + len(rec.Value) + 16)
		if size >= limit {
			if err := finish(); err != nil {
				return nil, err
			}
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	if b != nil {
		if err := finish(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (db *DB) openTable(num uint64, props sstable.Props) (*table, error) {
	rf, err := db.fs.Open(db.tableName(num))
	if err != nil {
		return nil, err
	}
	rdr, err := sstable.Open(rf)
	if err != nil {
		rf.Close()
		return nil, err
	}
	return &table{
		fileNum: num, size: props.Size, count: props.Count,
		smallest: props.Smallest, largest: props.Largest, rdr: rdr,
	}, nil
}

// overLimit reports whether level lev must compact: L0 at
// L0CompactTrigger runs, a deeper level at RunsPerLevel runs under
// tiering or past its size budget under leveling.
func (db *DB) overLimit(lev int) bool {
	switch {
	case lev == 0:
		return len(db.levels[0]) >= db.cfg.L0CompactTrigger
	case db.cfg.RunsPerLevel > 0:
		return len(db.levels[lev]) >= db.cfg.RunsPerLevel
	}
	budget := db.cfg.LevelSizeBase
	for i := 1; i < lev; i++ {
		budget *= int64(db.cfg.LevelMultiplier)
	}
	var size int64
	for _, r := range db.levels[lev] {
		for _, t := range r {
			size += t.size
		}
	}
	return size > budget
}

// maybeCompactLocked compacts the shallowest level over its limit until
// none is (the synchronous analogue of LevelDB's background thread).
func (db *DB) maybeCompactLocked() error {
	for {
		lev := 0
		for lev < NumLevels-1 && !db.overLimit(lev) {
			lev++
		}
		if lev == NumLevels-1 {
			return nil
		}
		if err := db.compactLocked(lev); err != nil {
			return err
		}
	}
}

// pick is the compaction policy: the runs a compaction of level lev takes
// from lev, and the next level's tables they merge with. Tiering takes
// every run of lev and nothing below it. Leveling takes all of L0, or one
// deeper table chosen round-robin, together with the tables of the next
// level's run that overlap it.
func (db *DB) pick(lev int) (inputs []run, below run) {
	inputs = db.levels[lev]
	if db.cfg.RunsPerLevel > 0 {
		return inputs, nil
	}
	if lev > 0 {
		// Round-robin cursor: the first table past the last compacted key.
		r := db.levels[lev][0]
		pick := r[0]
		if cur := db.cursor[lev]; cur != nil {
			for _, t := range r {
				if codec.Compare(t.smallest, cur) > 0 {
					pick = t
					break
				}
			}
		}
		db.cursor[lev] = append([]byte(nil), pick.largest...)
		inputs = []run{{pick}}
	}
	lo, hi := keyRange(inputs)
	for _, r := range db.levels[lev+1] {
		for _, t := range r {
			if overlaps(t, lo, hi) {
				below = append(below, t)
			}
		}
	}
	return inputs, below
}

// keyRange returns the smallest and largest key of the runs' tables.
func keyRange(runs []run) (lo, hi []byte) {
	for _, r := range runs {
		for _, t := range r {
			if lo == nil || codec.Compare(t.smallest, lo) < 0 {
				lo = t.smallest
			}
			if hi == nil || codec.Compare(t.largest, hi) > 0 {
				hi = t.largest
			}
		}
	}
	return lo, hi
}

// overlaps reports range intersection.
func overlaps(t *table, lo, hi []byte) bool {
	return codec.Compare(t.largest, lo) >= 0 && codec.Compare(t.smallest, hi) <= 0
}

// compactLocked merges what pick chooses from level lev into one new run
// and installs it in level lev+1: prepended as a run of its own under
// tiering, or in place of the overlapped tables of the level's one run
// under leveling.
func (db *DB) compactLocked(lev int) error {
	inputs, below := db.pick(lev)
	merging := append(slices.Clip(inputs), below)
	gone := map[*table]bool{}
	var iters []mergeiter.RecIter
	for _, r := range merging {
		iters = append(iters, newRunIter(r))
		for _, t := range r {
			gone[t] = true
		}
	}
	// Deeper levels hold older data: a tombstone may go when no table
	// there, beyond those being merged, overlaps the inputs' key range.
	lo, hi := keyRange(inputs)
	drop := true
	for _, runs := range db.levels[lev+1:] {
		for _, r := range runs {
			for _, t := range r {
				if !gone[t] && overlaps(t, lo, hi) {
					drop = false
				}
			}
		}
	}
	out, err := db.writeRun(mergeiter.NewDedup(mergeiter.New(iters)), db.cfg.TargetTableSize, drop)
	if err != nil {
		return err
	}

	next := lev + 1
	db.levels[lev] = without(db.levels[lev], gone)
	if db.cfg.RunsPerLevel > 0 {
		db.levels[next] = without(append([]run{out}, db.levels[next]...), gone)
	} else {
		for _, r := range db.levels[next] {
			out = append(out, r...)
		}
		sortTables(out)
		db.levels[next] = without([]run{out}, gone)
	}
	if err := db.saveVersion(); err != nil {
		return err
	}
	for _, r := range merging {
		for _, t := range r {
			t.rdr.Close()
			db.fs.Remove(db.tableName(t.fileNum))
		}
	}
	db.compactions.Add(1)
	return nil
}

// without returns runs minus the tables in gone, dropping runs left empty.
func without(runs []run, gone map[*table]bool) []run {
	var out []run
	for _, r := range runs {
		var kept run
		for _, t := range r {
			if !gone[t] {
				kept = append(kept, t)
			}
		}
		if len(kept) > 0 {
			out = append(out, kept)
		}
	}
	return out
}

func sortTables(tables run) {
	for i := 1; i < len(tables); i++ {
		for j := i; j > 0 && codec.Compare(tables[j].smallest, tables[j-1].smallest) < 0; j-- {
			tables[j], tables[j-1] = tables[j-1], tables[j]
		}
	}
}

// ---------------------------------------------------------------------------
// Version persistence: a small atomically replaced snapshot of the tree
// shape plus counters (the baseline's analogue of a MANIFEST; structural
// changes are rare enough that full snapshots are cheap at this scale).

const versionMagic uint64 = 0x756e696b7672756e // "unikvrun"

// saveVersion replaces VERSION with the tree in memory. A failure is
// sticky (see DB.saveErr).
func (db *DB) saveVersion() error {
	var buf []byte
	buf = codec.PutUint64(buf, versionMagic)
	buf = codec.PutUvarint(buf, db.nextFile)
	buf = codec.PutUvarint(buf, db.seq)
	buf = codec.PutUvarint(buf, db.walNum)
	for _, runs := range db.levels {
		buf = codec.PutUvarint(buf, uint64(len(runs)))
		for _, r := range runs {
			buf = codec.PutUvarint(buf, uint64(len(r)))
			for _, t := range r {
				buf = codec.PutUvarint(buf, t.fileNum)
				buf = codec.PutUvarint(buf, uint64(t.size))
				buf = codec.PutUvarint(buf, uint64(t.count))
				buf = codec.PutBytes(buf, t.smallest)
				buf = codec.PutBytes(buf, t.largest)
			}
		}
	}
	buf = codec.PutUint32(buf, codec.MaskChecksum(codec.Checksum(buf)))
	if err := db.fs.WriteFile(db.versionName(), buf); err != nil {
		db.saveErr = err
		return err
	}
	return nil
}

func (db *DB) loadVersion() error {
	data, err := db.fs.ReadFile(db.versionName())
	if err != nil {
		return err
	}
	if len(data) < 12 {
		return codec.ErrCorrupt
	}
	body, crcB := data[:len(data)-4], data[len(data)-4:]
	want, _, _ := codec.Uint32(crcB)
	if codec.MaskChecksum(codec.Checksum(body)) != want {
		return codec.ErrCorrupt
	}
	var magic uint64
	if magic, body, err = codec.Uint64(body); err != nil || magic != versionMagic {
		return codec.ErrCorrupt
	}
	// Decoders keep the first error and return zero values after it.
	uvarint := func() (v uint64) {
		if err == nil {
			v, body, err = codec.Uvarint(body)
		}
		return v
	}
	bytes := func() (b []byte) {
		if err == nil {
			b, body, err = codec.Bytes(body)
		}
		return append([]byte(nil), b...)
	}
	db.nextFile, db.seq, db.walNum = uvarint(), uvarint(), uvarint()
	for lev := range db.levels {
		for runs := uvarint(); err == nil && runs > 0; runs-- {
			var r run
			for tables := uvarint(); err == nil && tables > 0; tables-- {
				num, size, count := uvarint(), uvarint(), uvarint()
				props := sstable.Props{Size: int64(size), Count: int(count), Smallest: bytes(), Largest: bytes()}
				if err != nil {
					return err
				}
				t, err := db.openTable(num, props)
				if err != nil {
					return err
				}
				r = append(r, t)
			}
			db.levels[lev] = append(db.levels[lev], r)
		}
	}
	return err
}
