package core

import (
	"fmt"
	"path/filepath"
	"sort"

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
// Each table is read through a pinned version of its partition and each
// value log is held via the DB's log references while it is walked, so a
// concurrent merge or GC can replace files without racing the verification.
func (db *DB) VerifyIntegrityReport() ([]CorruptionReport, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	var reports []CorruptionReport
	logOwners := map[uint32][]uint32{}
	for _, p := range db.partitions() {
		v := p.acquire()
		for _, t := range tablesOf(v) {
			if r, bad := verifyTable(p, t); bad {
				reports = append(reports, r)
			}
		}
		for _, n := range v.logs {
			logOwners[n] = append(logOwners[n], p.id)
		}
		v.release()
	}
	nums := make([]uint32, 0, len(logOwners))
	for n := range logOwners {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	activeNum, activeOff, hasActive := db.vl.ActiveBound()
	for _, n := range nums {
		// Pin the log across the walk so GC cannot remove it mid-read; the
		// owning partitions hold the baseline references, so this release
		// deletes nothing unless every owner moved on while we scanned.
		db.retainLogs([]uint32{n})
		limit := int64(-1)
		if hasActive && n == activeNum {
			limit = activeOff
		}
		_, off, err := db.vl.VerifyLogPrefix(n, limit, nil)
		db.releaseLogs([]uint32{n})
		if err != nil {
			owners := logOwners[n]
			sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
			reports = append(reports, CorruptionReport{
				Partition:  owners[0],
				Partitions: owners,
				File:       filepath.Join(db.vlogDir(), vlog.LogName(n)),
				Block:      -1,
				Offset:     off,
				Err:        fmt.Errorf("value log %d: %w", n, err),
			})
		}
	}
	return reports, nil
}

// verifyTable checksums every block of one table of a pinned version of p,
// reporting the first bad block.
func verifyTable(p *partition, t scrubTable) (CorruptionReport, bool) {
	for i := 0; i < t.r.NumBlocks(); i++ {
		if _, err := t.r.VerifyBlock(i); err != nil {
			return CorruptionReport{
				Partition:  p.id,
				Partitions: []uint32{p.id},
				File:       tableName(p.dir, t.num),
				Block:      i,
				Offset:     -1,
				Err:        fmt.Errorf("partition %d %s table %d: %w", p.id, t.tier, t.num, err),
			}, true
		}
	}
	return CorruptionReport{}, false
}
