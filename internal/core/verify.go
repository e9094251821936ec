package core

import (
	"fmt"
	"path/filepath"
	"slices"

	"unikv/internal/vlog"
)

// CorruptionReport locates one corrupt file found by VerifyIntegrityReport
// (or by the background scrub). Exactly one of Block/Offset is meaningful:
// tables report the bad data-block index, value logs the byte offset where
// the frame walk stopped.
type CorruptionReport struct {
	// Partition is the owning partition for a table, or the lowest-numbered
	// affected partition for a shared value log.
	Partition uint32
	// Partitions lists every partition affected — for a shared value log,
	// all partitions holding live pointers into it (the quarantine blast
	// radius); for a table, just the owner.
	Partitions []uint32
	// File is the corrupt file's path under the DB directory.
	File string
	// Block is the table data-block index, or -1 when not applicable.
	Block int
	// Offset is the value-log byte offset where verification stopped
	// (the length of the valid frame prefix), or -1 when not applicable.
	Offset int64
	// Err is the corruption error, prefixed with the file's tier and
	// partition ("partition 3 sorted table 7: ..." / "value log 5: ...").
	Err error
}

func (r CorruptionReport) String() string {
	where := ""
	if r.Block >= 0 {
		where = fmt.Sprintf(" block %d", r.Block)
	} else if r.Offset >= 0 {
		where = fmt.Sprintf(" valid prefix %d bytes", r.Offset)
	}
	return fmt.Sprintf("%s (partitions %v%s): %v", r.File, r.Partitions, where, r.Err)
}

// VerifyIntegrity re-reads and checksum-verifies every table block and
// every value-log record in the database, including the active log's
// sealed prefix (the reconciled frame boundary below which bytes are
// immutable). It returns the first corruption found, or nil.
//
// Partitions are verified one at a time on a pinned version, so reads and
// writes proceed beside the verification.
func (db *DB) VerifyIntegrity() error {
	reports, err := db.VerifyIntegrityReport()
	if err != nil {
		return err
	}
	if len(reports) == 0 {
		return nil
	}
	return reports[0].Err
}

// VerifyIntegrityReport is the report-all form of VerifyIntegrity: it
// keeps scanning past the first corruption and returns one report per
// corrupt file (locating the first bad block or frame of each). An empty
// result means every file verified clean. The error return is reserved
// for ErrClosed; corruption never surfaces there.
//
// Tables are walked through a pinned version of their partition and value
// logs as verifyLogs holds them, so a concurrent merge or GC can replace
// files without racing the verification.
func (db *DB) VerifyIntegrityReport() ([]CorruptionReport, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	var reports []CorruptionReport
	for _, p := range db.partitions() {
		v := p.acquire()
		for _, t := range tablesOf(v) {
			if i, err := t.r.VerifyChecksums(nil); err != nil {
				reports = append(reports, CorruptionReport{
					Partition:  p.id,
					Partitions: []uint32{p.id},
					File:       tableName(p.dir, t.num),
					Block:      i,
					Offset:     -1,
					Err:        fmt.Errorf("partition %d %s table %d: %w", p.id, t.tier, t.num, err),
				})
			}
		}
		v.release()
	}
	db.verifyLogs(nil, func(n uint32, owners []uint32, off int64, err error) bool {
		if err != nil {
			reports = append(reports, CorruptionReport{
				Partition:  owners[0],
				Partitions: owners,
				File:       filepath.Join(db.vlogDir(), vlog.LogName(n)),
				Block:      -1,
				Offset:     off,
				Err:        fmt.Errorf("value log %d: %w", n, err),
			})
		}
		return true
	})
	return reports, nil
}

// verifyLogs is the one walk over the value logs, VerifyIntegrity's and
// the scrub's: every log there was as the pass began, once, in ascending
// order, the active log up to its sealed frame boundary (bytes past it are
// appends in flight, not damage; taken after the listing, so every other
// listed log is sealed). While the walk is on a log it pins a current
// version naming it, so a GC cannot remove the file under the walk; a log
// no current version names was retired, which is not damage, and is
// skipped. pace is as in sstable.Reader.VerifyChecksums. done gets each
// walked log with the partitions naming it (ascending), the length of its
// valid frame prefix and the walk's error; returning false ends the pass.
func (db *DB) verifyLogs(pace func(int64) error, done func(n uint32, owners []uint32, off int64, err error) bool) {
	nums := db.vl.LogNums()
	activeNum, activeOff, hasActive := db.vl.ActiveBound()
	for _, n := range nums {
		var owners []uint32
		var held *version
		for _, p := range db.partitions() {
			v := p.acquire()
			if !v.hasLog(n) {
				v.release()
				continue
			}
			owners = append(owners, p.id)
			if held == nil {
				held = v
			} else {
				v.release()
			}
		}
		if held == nil {
			continue
		}
		limit := int64(-1)
		if hasActive && n == activeNum {
			limit = activeOff
		}
		_, off, err := db.vl.VerifyLogPrefix(n, limit, pace)
		held.release()
		slices.Sort(owners)
		if !done(n, owners, off, err) {
			return
		}
	}
}
