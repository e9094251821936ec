package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"unikv"
	"unikv/internal/cache"
	"unikv/internal/hashindex"
	"unikv/internal/hotring"
	"unikv/internal/manifest"
	"unikv/internal/memtable"
	"unikv/internal/mergeiter"
	"unikv/internal/protocol"
	"unikv/internal/record"
	"unikv/internal/server"
	"unikv/internal/sortedview"
	"unikv/internal/sstable"
	"unikv/internal/vfs"
	"unikv/internal/vlog"
	"unikv/internal/wal"
)

// Per-layer metrics come from three places, all outside the engine:
// counter deltas over the traced pass (DB.Metrics, Server.Metrics,
// vfs.Counters), the spans of the traced pass, and layer probes that replay
// the workload's own keys and values straight into a package's exported
// functions.

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (e *env) layerMetrics(res *result, main *phase, before, after unikv.Metrics, srvBefore, srvAfter server.Metrics, reopen time.Duration) {
	tr := e.tr
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	// vfs: totals from vfs.Counters, the split by file class from the
	// tracing FS. Busy time covers the traced blocks only (half the ops).
	res.add("vfs.write_bytes", float64(main.io.BytesWritten), "B", "")
	res.add("vfs.read_bytes", float64(main.io.BytesRead), "B", "")
	res.add("vfs.write_ops", float64(main.io.WriteOps), "count", "")
	res.add("vfs.read_ops", float64(main.io.ReadOps), "count", "")
	res.add("vfs.syncs", float64(main.io.Syncs), "count", "")
	res.add("vfs.files_created", float64(main.io.FilesCreated), "count", "")
	var syncNs int64
	for c := 0; c < classOther; c++ {
		b, a := &e.classBefore[c], &e.classAfter[c]
		name := "vfs." + classNames[c]
		res.add(name+".write_bytes", float64(a.bytes[ioWrite]-b.bytes[ioWrite]), "B", "")
		res.add(name+".read_bytes", float64(a.bytes[ioRead]-b.bytes[ioRead]), "B", "")
		res.add(name+".busy_ms", ms(a.busyNs[ioWrite]-b.busyNs[ioWrite]+a.busyNs[ioRead]-b.busyNs[ioRead]), "ms", "traced blocks")
		syncNs += a.busyNs[ioSync] - b.busyNs[ioSync]
	}
	res.add("vfs.sync.busy_ms", ms(syncNs), "ms", "traced blocks")

	// core
	gets := float64(main.ops[opGet])
	res.add("core.flushes", float64(after.Flushes-before.Flushes), "count", "")
	res.add("core.merges", float64(after.Merges-before.Merges), "count", "")
	res.add("core.scan_merges", float64(after.ScanMerges-before.ScanMerges), "count", "")
	res.add("core.gcs", float64(after.GCs-before.GCs), "count", "")
	res.add("core.splits", float64(after.Splits-before.Splits), "count", "")
	res.add("core.gc_bytes_rewritten", float64(after.GCBytesRewritten-before.GCBytesRewritten), "B", "")
	res.add("core.partitions", float64(after.Partitions), "count", "")
	res.add("core.unsorted_tables", float64(after.UnsortedTables), "count", "")
	res.add("core.sorted_tables", float64(after.SortedTables), "count", "")
	// Retired tables take their read counts with them, so the delta only
	// means something while the table set holds still.
	blockReads := float64(after.TableBlockReads - before.TableBlockReads)
	if blockReads < 0 {
		blockReads = 0
	}
	res.add("core.table_block_reads_per_get", ratio(blockReads, gets), "1/op", "")
	res.add("core.reopen_ms", ms(reopen.Nanoseconds()), "ms", "")
	res.add("core.put_stall_share", ratio(float64(tr.kinds[opPut].stallNs), float64(tr.tracedNs)), "share", "puts over 1 ms / wall, traced blocks")
	for k, a := range tr.kinds {
		res.add("core.self_us_per_"+kindNames[k], ratio(float64(a.spanNs-a.childNs), float64(a.ops))/1e3, "us", fmt.Sprintf("n=%d", a.ops))
	}
	res.add("core.maint_ms", ms(tr.kinds[opPut].maintNs), "ms", "puts that wrote an sst or vlog file, traced blocks")
	for k, name := range kindNames {
		res.add("core."+name+"_p99_us", windowQuantile(main.hists[k], 0.99)/1e3, "us", fmt.Sprintf("n=%d", samples(main.hists[k])))
	}

	// Gauges and counter deltas of the layers the engine reports on.
	res.add("hashindex.bytes", float64(after.HashIndexBytes), "B", "")
	res.add("vlog.bytes", float64(after.ValueLogBytes), "B", "")
	res.add("vlog.logs", float64(after.ValueLogs), "count", "")
	issued := float64(after.ScanPrefetchIssued - before.ScanPrefetchIssued)
	res.add("vlog.prefetch_issued", issued, "count", "")
	res.add("vlog.prefetch_waste_rate", ratio(float64(after.ScanPrefetchWasted-before.ScanPrefetchWasted), issued), "share", "")
	hits, misses := float64(after.HotRingHits-before.HotRingHits), float64(after.HotRingMisses-before.HotRingMisses)
	res.add("hotring.hit_rate", ratio(hits, hits+misses), "share", "")
	res.add("hotring.promotions", float64(after.HotRingPromotions-before.HotRingPromotions), "count", "")
	res.add("hotring.invalidations", float64(after.HotRingInvalidations-before.HotRingInvalidations), "count", "")
	res.add("hotring.resident_bytes", float64(after.HotRingResidentBytes), "B", "")
	bh, bm := float64(after.CacheBlockHits-before.CacheBlockHits), float64(after.CacheBlockMisses-before.CacheBlockMisses)
	vh, vm := float64(after.CacheValueHits-before.CacheValueHits), float64(after.CacheValueMisses-before.CacheValueMisses)
	res.add("cache.block_hit_rate", ratio(bh, bh+bm), "share", "")
	res.add("cache.value_hit_rate", ratio(vh, vh+vm), "share", "")
	res.add("cache.evictions", float64(after.CacheEvictions-before.CacheEvictions), "count", "")
	res.add("cache.bytes", float64(after.CacheBytes), "B", "")
	res.add("sortedview.entries", float64(after.SortedViewEntries), "count", "")
	res.add("sortedview.bytes", float64(after.SortedViewBytes), "B", "")
	res.add("sortedview.builds", float64(after.SortedViewBuilds-before.SortedViewBuilds), "count", "")
	res.add("sortedview.rebuilds", float64(after.SortedViewRebuilds-before.SortedViewRebuilds), "count", "")
	e.notef("gets served by: ring %.3f, value cache %.3f, of %d", ratio(hits, gets), ratio(vh, gets), main.ops[opGet])

	// server: zero unless the workload goes over the wire.
	reqs := float64(srvAfter.Requests - srvBefore.Requests)
	commits := float64(srvAfter.GroupCommits - srvBefore.GroupCommits)
	res.add("server.requests", reqs, "count", "")
	res.add("server.group_commits", commits, "count", "")
	res.add("server.ops_per_group_commit", ratio(float64(srvAfter.GroupedOps-srvBefore.GroupedOps), commits), "1/op", "")
	res.add("server.bytes_in_per_op", ratio(float64(srvAfter.BytesIn-srvBefore.BytesIn), reqs), "B", "")
	res.add("server.bytes_out_per_op", ratio(float64(srvAfter.BytesOut-srvBefore.BytesOut), reqs), "B", "")
	res.add("server.errors", float64(srvAfter.Errors-srvBefore.Errors), "count", "")
	var wire float64
	if e.embedded != nil {
		var net, emb hist
		for k := range main.hists {
			for i := range main.hists[k] {
				net.merge(main.hists[k][i])
				emb.merge(e.embedded.hists[k][i])
			}
		}
		wire = (net.quantile(0.5) - emb.quantile(0.5)) / 1e3
	}
	res.add("server.wire_self_us_per_op", wire, "us", "median over the wire minus median of the same stream embedded")

	res.add("trace.overhead_share", 1-ratio(median(tr.rates[1]), median(tr.rates[0])), "share", "1 - traced/untraced ops per second, median blocks")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// timeOps runs f, which performs n operations, and returns nanoseconds and
// heap allocations per operation.
func timeOps(n int, f func()) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(d.Nanoseconds()) / float64(n), float64(ms.Mallocs-mallocs) / float64(n)
}

const probeRecords = 16384

// layerProbes times each substrate package on the first probeRecords
// requests of the workload's own stream. Any failure inside a probe counts
// as a failed operation of the run. It runs after the store is gone: with
// hundreds of megabytes of it still live the collector would hardly run, and
// the probes would time first-touch page faults instead of the layers.
func (e *env) layerProbes(res *result) {
	g := e.mixGen(0)
	recs := make([]record.Record, e.scaled(probeRecords))
	for i := range recs {
		num := g.next().num
		val := make([]byte, valLen)
		e.vals.fill(val, num, uint32(i+1))
		recs[i] = record.Record{Key: appendKey(nil, num), Seq: uint64(i + 1), Kind: record.KindSet, Value: val}
	}
	n := len(recs)
	fs := vfs.NewMem()
	bad := 0
	check := func(ok bool) {
		if !ok {
			bad++
		}
	}

	// wal
	encoded := make([][]byte, n)
	for i, r := range recs {
		encoded[i] = r.Encode(nil)
	}
	f, _ := fs.Create("probe.wal")
	w := wal.NewWriter(f)
	ns, allocs := timeOps(n, func() {
		for _, rec := range encoded {
			check(w.AddRecord(rec) == nil)
		}
	})
	check(w.Close() == nil)
	res.add("wal.add_record_ns", ns, "ns", "")
	res.add("wal.allocs_per_op", allocs, "1/op", "")

	// memtable
	mt := memtable.New()
	ns, _ = timeOps(n, func() {
		for _, r := range recs {
			mt.Put(r)
		}
	})
	res.add("memtable.put_ns", ns, "ns", "")
	ns, _ = timeOps(n, func() {
		for _, r := range recs {
			_, ok := mt.Get(r.Key)
			check(ok)
		}
	})
	res.add("memtable.get_ns", ns, "ns", "")
	sorted := make([]record.Record, 0, n)
	ns, _ = timeOps(n, func() {
		it := mt.NewIterator()
		for ok := it.First(); ok; ok = it.Next() {
			sorted = append(sorted, it.Record())
		}
	})
	check(len(sorted) == n)
	res.add("memtable.iter_ns_per_rec", ns, "ns", "")

	// hashindex: a key's table is a function of the key, so repeats of a
	// key agree and every lookup has exactly one right answer.
	const tables = 8
	tableOf := func(key []byte) uint16 { return uint16(key[keyLen-1]) % tables }
	hx := hashindex.New(n, 0)
	ns, _ = timeOps(n, func() {
		for _, r := range recs {
			hx.Insert(r.Key, tableOf(r.Key))
		}
	})
	res.add("hashindex.insert_ns", ns, "ns", "")
	candidates := 0
	ns, _ = timeOps(n, func() {
		for _, r := range recs {
			want := tableOf(r.Key)
			check(hx.Lookup(r.Key, func(t uint16) bool { candidates++; return t == want }))
		}
	})
	res.add("hashindex.lookup_ns", ns, "ns", "")
	res.add("hashindex.candidates_per_lookup", float64(candidates)/float64(n), "1/op", "table checks per lookup; 1 is ideal")

	// sstable
	build := func(name string, rs []record.Record) *sstable.Reader {
		f, _ := fs.Create(name)
		b := sstable.NewBuilder(f, sstable.BuilderOptions{})
		for _, r := range rs {
			b.Add(r)
		}
		_, err := b.Finish()
		check(err == nil && f.Close() == nil)
		rf, _ := fs.Open(name)
		r, err := sstable.Open(rf)
		check(err == nil)
		return r
	}
	var table *sstable.Reader
	ns, _ = timeOps(n, func() { table = build("probe.sst", sorted) })
	res.add("sstable.build_ns_per_rec", ns, "ns", "")
	if table != nil {
		ns, _ = timeOps(n, func() {
			for _, r := range recs {
				_, ok, err := table.Get(r.Key)
				check(ok && err == nil)
			}
		})
		res.add("sstable.get_ns", ns, "ns", "")
		it := table.NewIterator()
		ns, _ = timeOps(n, func() {
			for _, r := range recs {
				check(it.Seek(r.Key))
			}
		})
		res.add("sstable.seek_ns", ns, "ns", "")
		count := 0
		ns, _ = timeOps(n, func() {
			for ok := it.First(); ok; ok = it.Next() {
				count++
			}
		})
		check(count == n && it.Err() == nil)
		res.add("sstable.iter_ns_per_rec", ns, "ns", "")
		table.Close()
	}

	// vlog
	vl, err := vlog.Open(fs, "vlog", vlog.Options{})
	check(err == nil)
	if err == nil {
		ptrs := make([]record.ValuePtr, n)
		ns, _ = timeOps(n, func() {
			for i, r := range recs {
				p, err := vl.Append(r.Value)
				check(err == nil)
				ptrs[i] = p
			}
		})
		check(vl.Sync() == nil)
		res.add("vlog.append_ns", ns, "ns", "")
		ns, _ = timeOps(n, func() {
			for i, p := range ptrs {
				v, err := vl.Read(p)
				check(err == nil && len(v) == len(recs[i].Value))
			}
		})
		res.add("vlog.read_ns", ns, "ns", "")
		vl.Close()
	}

	// hotring: promote on first sight, then split the keys into residents
	// and losers of their slot.
	ring := hotring.New(hotring.Config{SampleEvery: 1, PromoteAfter: 1})
	for _, r := range recs {
		ring.Install(ring.BeginMiss(r.Key), r.Key, r.Value)
	}
	var resident, absent [][]byte
	for _, r := range recs {
		if _, ok := ring.Get(r.Key); ok {
			resident = append(resident, r.Key)
		} else {
			absent = append(absent, r.Key)
		}
	}
	probeRing := func(keys [][]byte, want bool) float64 {
		if len(keys) == 0 {
			return 0
		}
		ns, _ := timeOps(len(keys), func() {
			for _, k := range keys {
				_, ok := ring.Get(k)
				check(ok == want)
			}
		})
		return ns
	}
	res.add("hotring.get_hit_ns", probeRing(resident, true), "ns", fmt.Sprintf("n=%d", len(resident)))
	res.add("hotring.get_miss_ns", probeRing(absent, false), "ns", fmt.Sprintf("n=%d", len(absent)))

	// cache: the value pool at the engine's default size, which holds the
	// whole probe set.
	cc := cache.New(32<<20, 0)
	ns, _ = timeOps(n, func() {
		for i, r := range recs {
			cc.Add(cache.Key{Pool: cache.PoolValue, ID: 1, Off: uint64(i)}, r.Value)
		}
	})
	res.add("cache.add_ns", ns, "ns", "")
	ns, _ = timeOps(n, func() {
		for i := range recs {
			cc.Get(cache.Key{Pool: cache.PoolValue, ID: 1, Off: uint64(i)})
		}
	})
	res.add("cache.get_ns", ns, "ns", "")

	// sortedview and mergeiter, over runs cut from the stream in flush
	// order: run i holds the i-th slice of the requests.
	runs := func(k int) []*memtable.Memtable {
		ms := make([]*memtable.Memtable, k)
		for i := range ms {
			ms[i] = memtable.New()
			for _, r := range recs[i*n/k : (i+1)*n/k] {
				ms[i].Put(r)
			}
		}
		return ms
	}
	const viewTables = 4
	view := sortedview.New()
	var collectNs, withNs float64
	var readers []*sstable.Reader
	for i, m := range runs(viewTables) {
		var rs []record.Record
		it := m.NewIterator()
		for ok := it.First(); ok; ok = it.Next() {
			rs = append(rs, it.Record())
		}
		r := build(fmt.Sprintf("view%d.sst", i), rs)
		if r == nil {
			continue
		}
		readers = append(readers, r)
		var entries []sortedview.Entry
		ns, _ = timeOps(1, func() {
			var err error
			entries, err = sortedview.Collect(r)
			check(err == nil)
		})
		collectNs += ns
		ns, _ = timeOps(1, func() { view = view.WithTable(r, entries) })
		withNs += ns
	}
	check(view.Len() == n)
	res.add("sortedview.collect_us", collectNs/viewTables/1e3, "us", fmt.Sprintf("per table of %d records", n/viewTables))
	res.add("sortedview.with_table_us", withNs/viewTables/1e3, "us", fmt.Sprintf("per table of %d records", n/viewTables))
	vit := view.NewIterator()
	ns, _ = timeOps(n, func() {
		for _, r := range recs {
			check(vit.Seek(r.Key))
		}
	})
	check(vit.Err() == nil)
	res.add("sortedview.seek_ns", ns, "ns", "")
	for _, r := range readers {
		r.Close()
	}

	const mergeWays = 8
	iters := make([]mergeiter.RecIter, mergeWays)
	for i, m := range runs(mergeWays) {
		iters[i] = m.NewIterator()
	}
	merged := mergeiter.New(iters)
	count := 0
	ns, _ = timeOps(n, func() {
		for ok := merged.First(); ok; ok = merged.Next() {
			count++
		}
	})
	check(count == n && merged.Err() == nil)
	res.add("mergeiter.next_ns_k8", ns, "ns", "")

	// manifest: the edit batch a flush commits.
	const applies = 200
	mf, err := manifest.Open(fs, "manifest")
	check(err == nil)
	if err == nil {
		check(mf.Apply(manifest.AddPartition(0, nil)) == nil)
		ns, _ = timeOps(applies, func() {
			for i := uint64(0); i < applies; i++ {
				meta := manifest.TableMeta{FileNum: i + 1, Size: 4 << 20, Count: 4096, Smallest: recs[0].Key, Largest: recs[n-1].Key, MinSeq: i, MaxSeq: i}
				check(mf.Apply(manifest.AddUnsorted(0, meta), manifest.NextFile(i+2), manifest.LastSeq(i)) == nil)
			}
		})
		res.add("manifest.apply_us", ns/1e3, "us", "")
		mf.Close()
	}

	// protocol: a PUT request, encoded and decoded.
	var frame []byte
	encNs, encAllocs := timeOps(n, func() {
		for i, r := range recs {
			frame = protocol.AppendPut(frame[:0], uint32(i), r.Key, r.Value)
		}
	})
	body := frame[4:] // past the length prefix
	decNs, decAllocs := timeOps(n, func() {
		for range recs {
			req, err := protocol.DecodeRequest(body)
			check(err == nil && len(req.Value) == valLen)
		}
	})
	res.add("protocol.encode_ns", encNs, "ns", "")
	res.add("protocol.decode_ns", decNs, "ns", "")
	res.add("protocol.allocs_per_op", encAllocs+decAllocs, "1/op", "encode + decode")

	e.attempted += int64(n)
	e.failed += int64(bad)
}
