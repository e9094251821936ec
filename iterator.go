package unikv

// Iterator streams key-ordered pairs. It pages through the store with
// bounded Scans and resumes after the last returned key, so it never pins
// partition locks between Next calls — long iterations cannot stall
// writers, merges, or splits. The trade-off is a relaxed isolation level:
// concurrent writes behind the cursor are not observed; writes ahead of it
// may be.
//
//	it := db.NewIterator([]byte("user:"), []byte("user;"))
//	for it.Next() {
//	    use(it.Key(), it.Value())
//	}
//	if err := it.Err(); err != nil { ... }
type Iterator struct {
	db        *DB
	end       []byte
	page      []KV
	idx       int
	nextStart []byte
	err       error
	done      bool
}

// iterPageSize bounds one paging Scan.
const iterPageSize = 256

// NewIterator returns an iterator over [start, end); a nil end means "to
// the end of the key space". The iterator starts before the first pair:
// call Next to advance.
func (db *DB) NewIterator(start, end []byte) *Iterator {
	return &Iterator{
		db:        db,
		end:       append([]byte(nil), end...),
		nextStart: append([]byte(nil), start...),
	}
}

// Next advances to the following pair and reports whether one exists.
func (it *Iterator) Next() bool {
	if it.err != nil {
		return false
	}
	it.idx++
	if it.idx < len(it.page) {
		return true
	}
	if it.done {
		return false
	}
	end := it.end
	if len(end) == 0 {
		end = nil
	}
	page, err := it.db.Scan(it.nextStart, end, iterPageSize)
	if err != nil {
		it.err = err
		return false
	}
	it.page = page
	it.idx = 0
	if len(page) < iterPageSize {
		it.done = true
	}
	if len(page) == 0 {
		return false
	}
	// Resume after the last key of this page: its immediate successor is
	// lastKey + 0x00.
	last := page[len(page)-1].Key
	it.nextStart = append(append(it.nextStart[:0], last...), 0)
	return true
}

// Key returns the current pair's key. Valid after Next returned true. The
// slice is the caller's to keep or mutate — the iterator never reads a
// returned key again (it resumes from its own copy) — but it shares a
// backing array with the other pairs its partition contributed to the
// current page (see KV), so keeping it keeps at most about twice those
// pairs' bytes alive.
func (it *Iterator) Key() []byte { return it.page[it.idx].Key }

// Value returns the current pair's value. Valid after Next returned true;
// the same ownership as Key.
func (it *Iterator) Value() []byte { return it.page[it.idx].Value }

// Err returns the first error the iterator encountered, if any.
func (it *Iterator) Err() error { return it.err }
