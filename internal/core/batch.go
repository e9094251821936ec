package core

import (
	"unikv/internal/arena"
	"unikv/internal/record"
)

// Batch collects writes to apply together. All operations destined for the
// same partition are committed with a single WAL record (and a single
// fsync under SyncWrites), so they become durable atomically within that
// partition; operations that straddle a partition boundary commit
// per-partition, in key order (partitions have independent WALs by
// design — the paper's partitions are fully independent).
type Batch struct {
	ops []record.Record
	mem arena.Bytes // owns the copied keys and values until Reset
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put queues an insert/overwrite. Key and value are copied into the
// batch's arena (the caller may reuse its buffers at once); ApplyBatch
// hands them to the WAL and the memtable, which keep their own copies.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, record.Record{Key: b.mem.Copy(key), Kind: record.KindSet, Value: b.mem.Copy(value)})
}

// Delete queues a tombstone. The key is copied.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, record.Record{Key: b.mem.Copy(key), Kind: record.KindDelete})
}

// PutBorrowed queues an insert/overwrite without copying: the batch holds
// the caller's key and value, which must stay untouched until the Apply
// that commits them (this batch's, or one it was Appended to) has
// returned. A reused batch filled this way allocates nothing — it is what
// lets a network put cost what DB.Put costs.
func (b *Batch) PutBorrowed(key, value []byte) {
	b.ops = append(b.ops, record.Record{Key: key, Kind: record.KindSet, Value: value})
}

// DeleteBorrowed queues a tombstone under PutBorrowed's contract.
func (b *Batch) DeleteBorrowed(key []byte) {
	b.ops = append(b.ops, record.Record{Key: key, Kind: record.KindDelete})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Append queues every operation of o at the end of b, preserving order.
// o's operations are not changed; their key/value buffers are shared (o's
// arena, or the memory o borrowed), so o must not be Reset before b is
// applied. This is the group-commit primitive: a coalescer merges many
// callers' batches into one and pays a single commit (one WAL record and
// fsync per partition) for all of them.
func (b *Batch) Append(o *Batch) { b.ops = append(b.ops, o.ops...) }

// Reset empties the batch for reuse. The arena is dropped, not rewound:
// a batch this one was Appended to may still share its buffers.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	b.mem = arena.Bytes{}
}

// ApplyBatch applies every operation in the batch. Operations are
// sequenced in queue order; per-key ordering is always preserved (a key
// maps to exactly one partition).
func (db *DB) ApplyBatch(b *Batch) error { return db.write(b.ops) }
