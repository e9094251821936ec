package core

import (
	"testing"

	"unikv/internal/vfs"
)

func TestSanitizeDefaults(t *testing.T) {
	o := Options{}.sanitize()
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
	if o.HashBuckets <= 0 || o.exp.HashCheckpointEvery <= 0 || o.FS == nil {
		t.Fatalf("%+v", o)
	}
	// Checkpoint cadence derives from UnsortedLimit/2 worth of memtables.
	if o.exp.HashCheckpointEvery != int(o.UnsortedLimit/(2*o.MemtableSize)) {
		t.Fatalf("HashCheckpointEvery=%d", o.exp.HashCheckpointEvery)
	}
	// A negative cadence means "never checkpoint" and survives sanitize.
	if o := (Options{exp: Experiment{HashCheckpointEvery: -1}}).sanitize(); o.exp.HashCheckpointEvery != -1 {
		t.Fatalf("HashCheckpointEvery=%d, want -1 (never)", o.exp.HashCheckpointEvery)
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
	o := in.sanitize()
	if o.MemtableSize != in.MemtableSize || o.UnsortedLimit != in.UnsortedLimit ||
		o.ScanMergeLimit != in.ScanMergeLimit || o.PartitionSizeLimit != in.PartitionSizeLimit ||
		o.GCRatio != in.GCRatio ||
		o.ValueThreshold != 128 {
		t.Fatalf("explicit values overwritten: %+v", o)
	}
}

// TestSanitizeTwiceIsOnce: a value that switches something off stays off
// when sanitized options are sanitized again (as when they are passed back
// to Open), instead of reading as "use the default".
func TestSanitizeTwiceIsOnce(t *testing.T) {
	fs := vfs.NewMem()
	for name, in := range map[string]Options{
		"defaults":        {FS: fs},
		"CacheOff":        {FS: fs, CacheBytes: CacheOff},
		"HotRingOff":      {FS: fs, HotRingEntries: HotRingOff},
		"unlimited scrub": {FS: fs, ScrubBytesPerSec: -1},
	} {
		once := in.sanitize()
		if twice := once.sanitize(); twice != once {
			t.Errorf("%s: once %+v, twice %+v", name, once, twice)
		}
	}
}
