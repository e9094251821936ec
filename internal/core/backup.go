package core

import (
	"fmt"
	"io"
	"path/filepath"

	"unikv/internal/manifest"
	"unikv/internal/memtable"
	"unikv/internal/vfs"
	"unikv/internal/vlog"
	"unikv/internal/wal"
)

// Backup writes an online point-in-time checkpoint of the database into
// destDir (which must be empty or absent). It pins a snapshot, publishes
// every pinned table file into the destination (hard link when the file
// system supports it, byte copy otherwise), copies each referenced value
// log up to its pinned length, cuts a fresh WAL per partition holding the
// pinned memtable contents, and writes a manifest describing exactly the
// pinned state. The result opens as an independent database whose reads
// reproduce the snapshot byte for byte.
//
// Writes, flushes, merges, splits, and GC proceed concurrently: the
// snapshot's pinned versions keep every copied file alive and immutable
// for the duration (an active value log can grow, which is why
// logs are length-bounded copies rather than links).
func (db *DB) Backup(destDir string) error {
	s, err := db.NewSnapshot()
	if err != nil {
		return err
	}
	defer s.Close()
	return db.BackupAt(s, destDir)
}

// BackupAt writes the checkpoint pinned by an existing snapshot. The
// snapshot stays open and usable afterwards; the caller closes it.
func (db *DB) BackupAt(s *Snapshot, destDir string) error {
	if s.closed.Load() {
		return ErrSnapshotClosed
	}
	if names, err := db.fs.List(destDir); err == nil && len(names) > 0 {
		return fmt.Errorf("unikv: backup destination %s is not empty", destDir)
	}
	if err := db.fs.MkdirAll(destDir); err != nil {
		return err
	}

	// Value logs first: collect the union across partitions (a split leaves
	// shared logs referenced by both children) and copy each log's current
	// prefix once. A log's size sits on a frame boundary — appends are
	// staged and issued as one write, and the size advances only after
	// success — so the copy never ends mid-record.
	destVlog := filepath.Join(destDir, "vlog")
	if err := db.fs.MkdirAll(destVlog); err != nil {
		return err
	}
	logSizes := map[uint32]int64{}
	for _, v := range s.parts {
		for _, n := range v.logs {
			// The log's size now: at least its size at the pin, which bounds
			// every pinned pointer.
			logSizes[n] = db.vl.SizeOf(n)
		}
	}
	for n, sz := range logSizes {
		src := filepath.Join(db.vlogDir(), vlog.LogName(n))
		if err := db.copyPrefix(src, filepath.Join(destVlog, vlog.LogName(n)), sz); err != nil {
			return fmt.Errorf("unikv: backup value log %d: %w", n, err)
		}
	}
	if err := db.fs.SyncDir(destVlog); err != nil {
		return err
	}

	// Per-partition state: table files plus a WAL cut of the pinned
	// memtable queue. Table files are immutable and kept alive by the
	// snapshot's versions even if the engine replaces them mid-backup
	// (removal is deferred until the last version naming them is released).
	var edits []manifest.Edit
	empty := s.parts[0].p.emptyVersion(nil) // no files; edits reads only next's id
	for _, v := range s.parts {
		id := v.p.id
		srcDir := v.p.dir
		dstDir := filepath.Join(destDir, fmt.Sprintf("p%d", id))
		if err := db.fs.MkdirAll(dstDir); err != nil {
			return err
		}
		for _, t := range tablesOf(v) {
			if err := db.linkOrCopy(tableName(srcDir, t.num), tableName(dstDir, t.num)); err != nil {
				return fmt.Errorf("unikv: backup partition %d table %d: %w", id, t.num, err)
			}
		}
		walNum, err := db.cutWAL(v, s.seq, dstDir)
		if err != nil {
			return fmt.Errorf("unikv: backup partition %d wal: %w", id, err)
		}
		if err := db.fs.SyncDir(dstDir); err != nil {
			return err
		}
		// The partition's files as edits from an empty one. HashCkpt stays
		// 0: the destination rebuilds its hash index from the copied tables
		// at open, so no checkpoint file is carried over.
		edits = append(edits, manifest.AddPartition(id, v.p.lower))
		edits = append(edits, empty.edits(v)...)
		if walNum != 0 {
			edits = append(edits, manifest.SetWAL(id, walNum))
		}
	}
	if err := db.fs.SyncDir(destDir); err != nil {
		return err
	}

	// The manifest is written last, after every file it references is
	// durable: a crash mid-backup leaves a destination that never names a
	// missing file (an empty-manifest dest is refused at open and discarded
	// by the caller). The counters past the pinned ones are derived at open.
	man, err := manifest.Open(db.fs, destDir)
	if err != nil {
		return err
	}
	if err := man.Apply(append([]manifest.Edit{manifest.LastSeq(s.seq)}, edits...)...); err != nil {
		man.Close()
		return err
	}
	return man.Close()
}

// cutWAL writes the pinned memtable queue (frozen tables oldest first,
// then the live table filtered to the pin) as a fresh WAL in dstDir,
// returning its file number (0 when there is nothing to cut). Replay
// rebuilds the records in a skiplist, so intra-file order is free; one
// logical WAL record per source memtable keeps the framing simple.
func (db *DB) cutWAL(v *version, seq uint64, dstDir string) (uint64, error) {
	tables := append(append([]*memtable.Memtable(nil), v.imm...), v.mem)
	var w *wal.Writer
	var f vfs.File
	num := uint64(0)
	var buf []byte
	for _, m := range tables {
		buf = buf[:0]
		it := m.NewIterator()
		for ok := it.First(); ok; ok = it.Next() {
			rec := it.Record()
			if rec.Seq > seq {
				continue
			}
			buf = rec.Encode(buf)
		}
		if len(buf) == 0 {
			continue
		}
		if w == nil {
			num = db.allocFileNum()
			var err error
			f, err = db.fs.Create(walName(dstDir, num))
			if err != nil {
				return 0, err
			}
			w = wal.NewWriter(f)
		}
		if err := w.AddRecord(buf); err != nil {
			f.Close()
			return 0, err
		}
	}
	if w == nil {
		return 0, nil
	}
	if err := w.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	return num, w.Close()
}

// linkOrCopy publishes an immutable file into the backup: a hard link when
// the file system supports one (and it succeeds — cross-device links fail),
// a full byte copy otherwise.
func (db *DB) linkOrCopy(src, dst string) error {
	if ln, ok := db.fs.(vfs.Linker); ok {
		if err := ln.Link(src, dst); err == nil {
			return nil
		}
	}
	return db.copyPrefix(src, dst, -1)
}

// copyPrefix copies the first n bytes of src into dst and syncs it
// (n < 0 copies the whole current length). A source shorter than n is an
// error: the pinned length was observed on real data and must be there.
func (db *DB) copyPrefix(src, dst string, n int64) error {
	in, err := db.fs.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	if n < 0 {
		if n, err = in.Size(); err != nil {
			return err
		}
	}
	out, err := db.fs.Create(dst)
	if err != nil {
		return err
	}
	buf := make([]byte, 1<<20)
	var off int64
	for off < n {
		chunk := buf
		if rem := n - off; rem < int64(len(chunk)) {
			chunk = chunk[:rem]
		}
		rd, rerr := in.ReadAt(chunk, off)
		if rd > 0 {
			if _, werr := out.Write(chunk[:rd]); werr != nil {
				out.Close()
				return werr
			}
			off += int64(rd)
		}
		if rerr == io.EOF || rd == 0 {
			if off < n {
				out.Close()
				return fmt.Errorf("%s truncated: copied %d of %d bytes", src, off, n)
			}
			break
		}
		if rerr != nil {
			out.Close()
			return rerr
		}
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
