// Command unikv-ctl inspects a UniKV database directory: the manifest
// state (partitions, boundary keys, table and log lists), per-table
// metadata, value-log inventory, and hash-index statistics.
//
// Usage:
//
//	unikv-ctl -dir /path/to/db manifest
//	unikv-ctl -dir /path/to/db tables
//	unikv-ctl -dir /path/to/db stats
//	unikv-ctl -dir /path/to/db get user0000000000000042
//	unikv-ctl -dir /path/to/db scan user00 10
//	unikv-ctl -dir /path/to/db [-verify] backup /path/to/backup
//	unikv-ctl -dir /path/to/db verify
//	unikv-ctl -dir /path/to/db repair
//
// backup writes a point-in-time checkpoint (hard-linking immutable table
// files when possible) that opens as an independent database; -verify
// additionally restore-opens the checkpoint afterwards and runs a full
// checksum verification over it. verify lists every corrupt file; repair
// salvages a damaged database offline (torn log tails truncated, corrupt
// tables moved to lost/, manifest rebuilt), prints an explicit loss
// report, then opens the result and prints the outcome of verifying every
// checksum. unikv-ctl takes the directory's exclusive
// lock while it runs; to checkpoint a database that is being served, call
// DB.Backup from the owning process instead.
//
// unikv-ctl opens the database directly and is for offline inspection;
// to serve a database over the network use unikv-server (`unikv-ctl
// serve` prints a pointer). See the README's "Serving" section.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"unikv/internal/core"
	"unikv/internal/manifest"
	"unikv/internal/sstable"
	"unikv/internal/vfs"
	"unikv/internal/vlog"
)

func main() {
	dir := flag.String("dir", "", "database directory")
	verifyBackup := flag.Bool("verify", false, "backup: restore-open the checkpoint and verify all checksums")
	flag.Parse()
	cmd := flag.Arg(0)
	if (*dir == "" || flag.NArg() < 1) && cmd != "serve" {
		fmt.Fprintln(os.Stderr, "usage: unikv-ctl -dir <db> [-verify] manifest|tables|stats|verify|repair|get <key>|scan <start> <n>|backup <dest>")
		fmt.Fprintln(os.Stderr, "       (to serve a db over TCP, see `unikv-ctl serve` / unikv-server)")
		os.Exit(2)
	}
	switch cmd {
	case "manifest", "tables":
		showManifest(*dir, cmd == "tables")
	case "verify":
		verify(*dir)
	case "repair":
		repair(*dir)
	case "stats":
		withDB(*dir, func(db *core.DB) {
			m := db.Metrics()
			fmt.Printf("partitions:        %d\n", m.Partitions)
			fmt.Printf("unsorted tables:   %d (%d bytes)\n", m.UnsortedTables, m.UnsortedBytes)
			fmt.Printf("sorted tables:     %d (%d bytes)\n", m.SortedTables, m.SortedBytes)
			fmt.Printf("value logs:        %d (%d bytes)\n", m.ValueLogs, m.ValueLogBytes)
			fmt.Printf("hash index memory: %d bytes\n", m.HashIndexBytes)
			fmt.Println("maintenance:")
			fmt.Printf("  pending jobs:        %d\n", m.PendingJobs)
			fmt.Printf("  immutable memtables: %d\n", m.ImmutableMemtables)
			fmt.Printf("  flushes:             %d\n", m.Flushes)
			fmt.Printf("  merges:              %d\n", m.Merges)
			fmt.Printf("  scan merges:         %d\n", m.ScanMerges)
			fmt.Printf("  gcs:                 %d (%d bytes rewritten)\n", m.GCs, m.GCBytesRewritten)
			fmt.Printf("  splits:              %d\n", m.Splits)
			fmt.Printf("  write stalls:        %d (%d ns stalled, %d ns slowed)\n", m.Stalls, m.StallNanos, m.SlowdownNanos)
			fmt.Printf("  background errors:   %d\n", m.BackgroundErrors)
			fmt.Printf("  background retries:  %d\n", m.BackgroundRetries)
			if m.Degraded {
				fmt.Printf("  DEGRADED (read-only) since %s\n", time.Unix(0, m.DegradedSince).Format(time.RFC3339))
				fmt.Printf("    cause: %s\n", m.DegradedCause)
			}
			fmt.Println("scrub:")
			fmt.Printf("  passes:              %d\n", m.ScrubPasses)
			fmt.Printf("  verified:            %d tables, %d logs (%d bytes)\n", m.ScrubbedTables, m.ScrubbedLogs, m.ScrubbedBytes)
			fmt.Printf("  corruptions found:   %d\n", m.ScrubCorruptions)
			if m.QuarantinedPartitions > 0 {
				fmt.Printf("  QUARANTINED partitions: %d (run unikv-ctl repair)\n", m.QuarantinedPartitions)
			}
			fmt.Println("read cache:")
			fmt.Printf("  resident:            %d entries (%d bytes)\n", m.CacheEntries, m.CacheBytes)
			fmt.Printf("  block hits/misses:   %d / %d\n", m.CacheBlockHits, m.CacheBlockMisses)
			fmt.Printf("  value hits/misses:   %d / %d\n", m.CacheValueHits, m.CacheValueMisses)
			fmt.Printf("  evictions:           %d\n", m.CacheEvictions)
			fmt.Println("hot ring:")
			fmt.Printf("  resident:            %d keys (%d bytes)\n", m.HotRingResident, m.HotRingResidentBytes)
			fmt.Printf("  hits/misses:         %d / %d\n", m.HotRingHits, m.HotRingMisses)
			fmt.Printf("  promotions:          %d\n", m.HotRingPromotions)
			fmt.Printf("  invalidations:       %d\n", m.HotRingInvalidations)
			fmt.Println("sorted view:")
			fmt.Printf("  entries:             %d (%d bytes)\n", m.SortedViewEntries, m.SortedViewBytes)
			fmt.Printf("  builds/rebuilds:     %d / %d\n", m.SortedViewBuilds, m.SortedViewRebuilds)
			fmt.Println("scan readahead:")
			fmt.Printf("  spans read/wasted:   %d / %d\n", m.ScanPrefetchIssued, m.ScanPrefetchWasted)
		})
	case "get":
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "get needs a key")
			os.Exit(2)
		}
		withDB(*dir, func(db *core.DB) {
			v, err := db.Get([]byte(flag.Arg(1)))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Stdout.Write(v)
			fmt.Println()
		})
	case "scan":
		if flag.NArg() < 3 {
			fmt.Fprintln(os.Stderr, "scan needs a start key and a count")
			os.Exit(2)
		}
		n, err := strconv.Atoi(flag.Arg(2))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		withDB(*dir, func(db *core.DB) {
			kvs, err := db.Scan([]byte(flag.Arg(1)), nil, n)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, kv := range kvs {
				fmt.Printf("%s\t%s\n", kv.Key, kv.Value)
			}
		})
	case "backup":
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "backup needs a destination directory")
			os.Exit(2)
		}
		dest := flag.Arg(1)
		withDB(*dir, func(db *core.DB) {
			if err := db.Backup(dest); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("backup written to %s\n", dest)
		})
		if *verifyBackup {
			restoreAndVerify(dest)
		}
	case "serve":
		fmt.Fprintln(os.Stderr, "unikv-ctl inspects a database offline; serving is unikv-server's job:")
		fmt.Fprintf(os.Stderr, "\n  unikv-server -dir %s -addr :4090 [-http :4091] [-sync]\n\n", orDefault(*dir, "/path/to/db"))
		fmt.Fprintln(os.Stderr, "then talk to it with unikv/pkg/client (see README, section \"Serving\").")
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
		os.Exit(2)
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// restoreAndVerify opens the freshly written checkpoint — replaying its
// WAL cut, exactly what a restore does — and checksum-verifies everything
// it references.
func restoreAndVerify(dest string) {
	db, err := core.Open(dest, offlineOptions())
	if err != nil {
		fmt.Fprintf(os.Stderr, "restore-open of backup failed: %v\n", err)
		os.Exit(1)
	}
	err = db.VerifyIntegrity()
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "backup verification failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("backup restore-opened and verified: all checksums ok")
}

// offlineOptions are the options every command opens a database with:
// the defaults, keeping any orphan file for the operator to inspect.
func offlineOptions() core.Options {
	var o core.Options
	core.ExperimentOf(&o).DisableOrphanCleanup = true
	return o
}

// withDB opens the database read-mostly and runs fn.
func withDB(dir string, fn func(*core.DB)) {
	db, err := core.Open(dir, offlineOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()
	fn(db)
}

// showManifest prints the recovered metadata without opening the engine
// (or writing anything).
func showManifest(dir string, tables bool) {
	state, _, _, err := manifest.Load(vfs.NewOS(), dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("next file: %d  last seq: %d  next log: %d  next partition: %d\n",
		state.NextFileNum, state.LastSeq, state.NextLogNum, state.NextPartID)
	for _, p := range state.SortedPartitions() {
		fmt.Printf("partition %d  lower=%q  wal=%d  hash-ckpt=%d  logs=%v\n",
			p.ID, p.Lower, p.WALNum, p.HashCkpt, p.Logs)
		fmt.Printf("  unsorted: %d tables  sorted: %d tables\n", len(p.Unsorted), len(p.Sorted))
		if tables {
			for _, t := range p.Unsorted {
				printTable(dir, p.ID, "U", t)
			}
			for _, t := range p.Sorted {
				printTable(dir, p.ID, "S", t)
			}
		}
	}
}

// repair salvages the database offline (see core.Repair): torn value-log
// tails are truncated, unreadable tables move to lost/, dangling value
// pointers are dropped, and the manifest is rebuilt from what survives.
// Repair then opens the result and verifies it. The loss report and the
// verification outcome print to stdout.
func repair(dir string) {
	report, err := core.Repair(dir, core.Options{})
	if report != nil {
		fmt.Print(report.String())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "repair failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("verify: the repaired database opened and every table and value log checksum is clean")
	if report.DataLost() {
		fmt.Println("repair complete: some committed data was lost (see above; originals in lost/)")
		return
	}
	fmt.Println("repair complete: no committed data lost")
}

// verify checks every table block and value-log record checksum,
// reporting every corrupt file (not just the first). The engine-level
// report is used when the database opens; a database too damaged to open
// falls back to an offline per-file walk.
func verify(dir string) {
	db, err := core.Open(dir, offlineOptions())
	if err == nil {
		reports, verr := db.VerifyIntegrityReport()
		if cerr := db.Close(); verr == nil {
			verr = cerr
		}
		if verr != nil {
			fmt.Fprintln(os.Stderr, verr)
			os.Exit(1)
		}
		for _, r := range reports {
			fmt.Printf("BAD  %s\n", r.String())
		}
		if len(reports) > 0 {
			fmt.Printf("%d corrupt files\n", len(reports))
			os.Exit(1)
		}
		fmt.Println("all checksums ok")
		return
	}
	fmt.Fprintf(os.Stderr, "open failed (%v); walking files offline\n", err)
	verifyOffline(dir)
}

// verifyOffline walks the manifest's file inventory directly, without
// recovering the engine — the path of last resort for a database whose
// recovery itself fails.
func verifyOffline(dir string) {
	fs := vfs.NewOS()
	state, _, _, err := manifest.Load(fs, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	bad := 0
	checkTable := func(pid uint32, tm manifest.TableMeta) {
		name := filepath.Join(dir, fmt.Sprintf("p%d", pid), fmt.Sprintf("%08d.sst", tm.FileNum))
		f, err := fs.Open(name)
		if err != nil {
			fmt.Printf("BAD  %s: %v\n", name, err)
			bad++
			return
		}
		rdr, err := sstable.Open(f)
		if err != nil {
			f.Close()
			fmt.Printf("BAD  %s: %v\n", name, err)
			bad++
			return
		}
		if _, err := rdr.VerifyChecksums(nil); err != nil {
			fmt.Printf("BAD  %s: %v\n", name, err)
			bad++
		} else {
			fmt.Printf("ok   %s (%d records)\n", name, rdr.Count())
		}
		rdr.Close()
	}
	logsSeen := map[uint32]bool{}
	for _, p := range state.SortedPartitions() {
		for _, tm := range p.Unsorted {
			checkTable(p.ID, tm)
		}
		for _, tm := range p.Sorted {
			checkTable(p.ID, tm)
		}
		for _, l := range p.Logs {
			logsSeen[l] = true
		}
	}
	vl, err := vlog.Open(fs, filepath.Join(dir, "vlog"), vlog.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer vl.Close()
	for l := range logsSeen {
		n, err := vl.VerifyLog(l)
		if err != nil {
			fmt.Printf("BAD  %s (after %d values): %v\n", vlog.LogName(l), n, err)
			bad++
		} else {
			fmt.Printf("ok   %s (%d values)\n", vlog.LogName(l), n)
		}
	}
	if bad > 0 {
		fmt.Printf("%d corrupt files\n", bad)
		os.Exit(1)
	}
	fmt.Println("all checksums ok")
}

func printTable(dir string, pid uint32, tier string, t manifest.TableMeta) {
	name := filepath.Join(dir, fmt.Sprintf("p%d", pid), fmt.Sprintf("%08d.sst", t.FileNum))
	fmt.Printf("  [%s] %s  %d records  %d bytes  [%q .. %q]  seq %d..%d\n",
		tier, name, t.Count, t.Size, t.Smallest, t.Largest, t.MinSeq, t.MaxSeq)
}
