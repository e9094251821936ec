package core

import "testing"

func TestSanitizeDefaults(t *testing.T) {
	o := Options{}.Sanitize()
	if o.MemtableSize != 4<<20 {
		t.Fatalf("MemtableSize=%d", o.MemtableSize)
	}
	if o.UnsortedLimit != 8*o.MemtableSize {
		t.Fatalf("UnsortedLimit=%d", o.UnsortedLimit)
	}
	if o.PartitionSizeLimit != 8*o.UnsortedLimit {
		t.Fatalf("PartitionSizeLimit=%d", o.PartitionSizeLimit)
	}
	if o.ScanMergeLimit != 8 || o.GCRatio != 0.3 {
		t.Fatalf("%+v", o)
	}
	if o.HashBuckets <= 0 || o.HashCheckpointEvery <= 0 || o.FS == nil {
		t.Fatalf("%+v", o)
	}
	// Checkpoint cadence derives from UnsortedLimit/2 worth of memtables.
	if o.HashCheckpointEvery != int(o.UnsortedLimit/(2*o.MemtableSize)) {
		t.Fatalf("HashCheckpointEvery=%d", o.HashCheckpointEvery)
	}
	// A negative cadence means "never checkpoint" and survives Sanitize.
	if o := (Options{HashCheckpointEvery: -1}).Sanitize(); o.HashCheckpointEvery != -1 {
		t.Fatalf("HashCheckpointEvery=%d, want -1 (never)", o.HashCheckpointEvery)
	}
}

func TestSanitizePreservesExplicit(t *testing.T) {
	in := Options{
		MemtableSize:       1 << 10,
		UnsortedLimit:      4 << 10,
		ScanMergeLimit:     3,
		PartitionSizeLimit: 9 << 10,
		GCRatio:            0.5,
		ValueThreshold:     128,
	}
	o := in.Sanitize()
	if o.MemtableSize != in.MemtableSize || o.UnsortedLimit != in.UnsortedLimit ||
		o.ScanMergeLimit != in.ScanMergeLimit || o.PartitionSizeLimit != in.PartitionSizeLimit ||
		o.GCRatio != in.GCRatio ||
		o.ValueThreshold != 128 {
		t.Fatalf("explicit values overwritten: %+v", o)
	}
}
