// gen-olddb writes the old-format database directory committed under
// internal/core/testdata/parentdb: run at the parent commit, it exits
// without Close, so the directory holds tables, value logs, a manifest and
// an unflushed WAL exactly as that commit's writers produced them.
package main

import (
	"bytes"
	"fmt"
	"os"

	"unikv/internal/core"
	"unikv/internal/vfs"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte {
	n := 40
	if i%200 == 50 {
		n = 40 << 10 // fragments across a 32 KiB WAL block
	}
	return []byte(fmt.Sprintf("value-%06d-%s", i, bytes.Repeat([]byte{byte('a' + i%26)}, n)))
}

func main() {
	dir := os.Args[1]
	opts := core.Options{
		FS: vfs.NewOS(), SyncWrites: true,
		MemtableSize: 8 << 10, UnsortedLimit: 32 << 10, ScanMergeLimit: 3,
		PartitionSizeLimit: 1 << 20, MaxLogSize: 32 << 10, TargetTableSize: 8 << 10,
		HashBuckets: 1 << 10,
	}
	db, err := core.Open(dir, opts)
	check(err)
	for i := 0; i < 600; i++ {
		check(db.Put(key(i), val(i)))
	}
	for i := 0; i < 200; i += 2 {
		check(db.Put(key(i), val(i+1000)))
	}
	for i := 0; i < 100; i += 5 {
		check(db.Delete(key(i)))
	}
	for i := 300; i < 330; i++ { // a little left in the unsorted tier
		check(db.Put(key(i), val(i+2000)))
	}
	// The tail stays in the WAL. The memtable limit is raised first (options
	// are not persisted) so a record of three fragments can sit there unflushed.
	db.Close()
	opts.MemtableSize = 1 << 20
	db, err = core.Open(dir, opts)
	check(err)
	for i := 600; i < 620; i++ {
		check(db.Put(key(i), val(i)))
	}
	check(db.Put(key(620), bytes.Repeat([]byte("w"), 70<<10)))
	check(db.Delete(key(601)))
	m := db.Metrics()
	fmt.Printf("partitions=%d unsorted=%d sorted=%d logs=%d merges=%d\n", m.Partitions, m.UnsortedTables, m.SortedTables, m.ValueLogs, m.Merges)
	os.Exit(0) // no Close: crash-style
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
