package unsorted

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"unikv/internal/manifest"
	"unikv/internal/record"
	"unikv/internal/sorted"
	"unikv/internal/sortedview"
	"unikv/internal/sstable"
	"unikv/internal/vfs"
)

// buildTable writes kvs (map key→value) as a sorted table and returns it.
func buildTable(t testing.TB, fs vfs.FS, fileNum uint64, kvs map[string]string, seqBase uint64) (*sorted.Table, [][]byte) {
	t.Helper()
	keys := make([]string, 0, len(kvs))
	for k := range kvs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	name := filepath.Join("db", fmt.Sprintf("%06d.sst", fileNum))
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	b := sstable.NewBuilder(f, sstable.BuilderOptions{})
	var rawKeys [][]byte
	for i, k := range keys {
		b.Add(record.Record{Key: []byte(k), Seq: seqBase + uint64(i), Kind: record.KindSet, Value: []byte(kvs[k])})
		rawKeys = append(rawKeys, []byte(k))
	}
	props, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	rf, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	rdr, err := sstable.Open(rf)
	if err != nil {
		t.Fatal(err)
	}
	meta := manifest.TableMeta{
		FileNum: fileNum, Size: props.Size, Count: props.Count,
		Smallest: props.Smallest, Largest: props.Largest,
		MinSeq: props.MinSeq, MaxSeq: props.MaxSeq,
	}
	return &sorted.Table{Meta: meta, Reader: rdr}, rawKeys
}

// holder plays the partition's part in these tests: it names the current
// Store and replaces it with each successor, so the tests read like the
// sequence of flushes and merges they model.
type holder struct{ *Store }

func newHolder(nBuckets int, disableView bool) *holder {
	return &holder{New(nBuckets, false, disableView)}
}

func (h *holder) AddTable(t *sorted.Table, keys [][]byte, entries []sortedview.Entry) error {
	next, err := h.WithTable(t, keys, entries)
	if err == nil {
		h.Store = next
	}
	return err
}

// ReplaceAll models a merge (head nil) or a scan merge of every table into
// head, handing Replace the keys and view entries the writer would collect.
func (h *holder) ReplaceAll(head *sorted.Table) error {
	keys, entries, err := collect(head)
	if err == nil {
		h.Store = h.Replace(h.NumTables(), head, keys, entries)
	}
	return err
}

// collect reads t's keys and view entries (none for a nil t).
func collect(t *sorted.Table) ([][]byte, []sortedview.Entry, error) {
	if t == nil {
		return nil, nil, nil
	}
	entries, err := sortedview.Collect(t.Reader)
	keys := make([][]byte, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys, entries, err
}

// ScanView is the scan path's view lookup: an unbuilt view is built and
// installed first.
func (h *holder) ScanView() *sortedview.View {
	if h.NeedsView() {
		v, err := h.BuildView()
		if err != nil {
			return nil
		}
		h.Store = h.WithView(v)
	}
	return h.View()
}

func TestGetAcrossTables(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	s := newHolder(1024, false)

	t1, k1 := buildTable(t, fs, 1, map[string]string{"a": "a1", "b": "b1", "c": "c1"}, 1)
	t2, k2 := buildTable(t, fs, 2, map[string]string{"b": "b2", "d": "d2"}, 10)
	if err := s.AddTable(t1, k1, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(t2, k2, nil); err != nil {
		t.Fatal(err)
	}
	if s.NumTables() != 2 {
		t.Fatalf("NumTables=%d", s.NumTables())
	}
	cases := []struct{ k, v string }{
		{"a", "a1"}, {"b", "b2"}, {"c", "c1"}, {"d", "d2"},
	}
	for _, c := range cases {
		rec, ok, err := s.Get([]byte(c.k))
		if err != nil || !ok || string(rec.Value) != c.v {
			t.Fatalf("Get(%q) = %q, %v, %v; want %q", c.k, rec.Value, ok, err, c.v)
		}
	}
	if _, ok, _ := s.Get([]byte("zzz")); ok {
		t.Fatal("phantom key")
	}
	if s.SizeBytes() != t1.Meta.Size+t2.Meta.Size {
		t.Fatalf("SizeBytes=%d", s.SizeBytes())
	}
}

// TestPredecessorIgnoresLaterFlush pins the rule a partition version relies
// on: WithTable inserts the new table's keys into the hash index its
// predecessor shares, and the predecessor — which a reader may still hold —
// keeps answering from its own tables because it skips local IDs beyond
// them; Replace starts a fresh index and leaves the old chain alone.
func TestPredecessorIgnoresLaterFlush(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	get := func(s *Store, k string) string {
		t.Helper()
		rec, ok, err := s.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return ""
		}
		return string(rec.Value)
	}
	s0 := New(256, false, false)
	t1, k1 := buildTable(t, fs, 1, map[string]string{"a": "a1", "b": "b1"}, 1)
	t2, k2 := buildTable(t, fs, 2, map[string]string{"b": "b2", "c": "c2"}, 10)
	s1, err := s0.WithTable(t1, k1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := s1.WithTable(t2, k2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Index() != s2.Index() {
		t.Fatal("a flush is expected to share its predecessor's index")
	}
	for _, c := range []struct {
		s    *Store
		name string
		want [3]string // a, b, c
	}{
		{s0, "empty", [3]string{"", "", ""}},
		{s1, "one table", [3]string{"a1", "b1", ""}},
		{s2, "two tables", [3]string{"a1", "b2", "c2"}},
	} {
		for i, k := range []string{"a", "b", "c"} {
			if got := get(c.s, k); got != c.want[i] {
				t.Errorf("%s store: Get(%s) = %q, want %q", c.name, k, got, c.want[i])
			}
		}
	}
	if s1.NumTables() != 1 || s1.SizeBytes() != t1.Meta.Size || s1.View().Len() != 2 {
		t.Fatalf("predecessor changed: tables=%d size=%d view=%d", s1.NumTables(), s1.SizeBytes(), s1.View().Len())
	}

	// A merge that drops t1: the successor answers from t2 alone through a
	// fresh index, and the store it replaced is untouched.
	s3 := s2.Replace(1, nil, nil, nil)
	if s3.Index() == s2.Index() {
		t.Fatal("Replace must not reuse the index")
	}
	if a, b := get(s3, "a"), get(s3, "b"); a != "" || b != "b2" {
		t.Fatalf("rebuilt store: a=%q b=%q", a, b)
	}
	if a, b := get(s2, "a"), get(s2, "b"); a != "a1" || b != "b2" {
		t.Fatalf("replaced store changed: a=%q b=%q", a, b)
	}
}

func TestNewestTableWins(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	s := newHolder(256, false)
	// Same key overwritten across 10 flushes.
	for i := 0; i < 10; i++ {
		tab, keys := buildTable(t, fs, uint64(i+1),
			map[string]string{"hot": fmt.Sprintf("v%d", i)}, uint64(i*10+1))
		if err := s.AddTable(tab, keys, nil); err != nil {
			t.Fatal(err)
		}
	}
	rec, ok, err := s.Get([]byte("hot"))
	if err != nil || !ok || string(rec.Value) != "v9" {
		t.Fatalf("got %q ok=%v err=%v", rec.Value, ok, err)
	}
}

func TestRecoveryNoCheckpoint(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	s := newHolder(256, false)
	var metas []manifest.TableMeta
	for i := 0; i < 3; i++ {
		tab, keys := buildTable(t, fs, uint64(i+1),
			map[string]string{fmt.Sprintf("k%d", i): fmt.Sprintf("v%d", i), "shared": fmt.Sprintf("s%d", i)}, uint64(i*10+1))
		s.AddTable(tab, keys, nil)
		metas = append(metas, tab.Meta)
	}

	open := func(m manifest.TableMeta) (*sstable.Reader, error) {
		f, err := fs.Open(filepath.Join("db", fmt.Sprintf("%06d.sst", m.FileNum)))
		if err != nil {
			return nil, err
		}
		return sstable.Open(f)
	}
	rs, err := Recover(fs, 256, metas, "", false, false, open)
	r := &holder{rs}
	if err != nil {
		t.Fatal(err)
	}
	rec, ok, err := r.Get([]byte("shared"))
	if err != nil || !ok || string(rec.Value) != "s2" {
		t.Fatalf("recovered Get = %q %v %v", rec.Value, ok, err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, _ := r.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("k%d lost in recovery", i)
		}
	}
}

func TestRecoveryWithCheckpoint(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	s := newHolder(256, false)
	var metas []manifest.TableMeta
	for i := 0; i < 2; i++ {
		tab, keys := buildTable(t, fs, uint64(i+1),
			map[string]string{fmt.Sprintf("k%d", i): "v"}, uint64(i*10+1))
		s.AddTable(tab, keys, nil)
		metas = append(metas, tab.Meta)
	}
	if err := s.Checkpoint(fs, "db/hashidx.ckpt"); err != nil {
		t.Fatal(err)
	}
	// One more table flushed after the checkpoint.
	tab3, keys3 := buildTable(t, fs, 3, map[string]string{"k2": "v", "k0": "newer"}, 100)
	s.AddTable(tab3, keys3, nil)
	metas = append(metas, tab3.Meta)

	open := func(m manifest.TableMeta) (*sstable.Reader, error) {
		f, err := fs.Open(filepath.Join("db", fmt.Sprintf("%06d.sst", m.FileNum)))
		if err != nil {
			return nil, err
		}
		return sstable.Open(f)
	}
	rs, err := Recover(fs, 256, metas, "db/hashidx.ckpt", false, false, open)
	r := &holder{rs}
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k0", "k1", "k2"} {
		if _, ok, _ := r.Get([]byte(k)); !ok {
			t.Fatalf("%s lost", k)
		}
	}
	rec, _, _ := r.Get([]byte("k0"))
	if string(rec.Value) != "newer" {
		t.Fatalf("k0 = %q, checkpoint replay order broken", rec.Value)
	}
}

func TestRecoveryStaleCheckpointIgnored(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	s := newHolder(256, false)
	tab, keys := buildTable(t, fs, 1, map[string]string{"old": "x"}, 1)
	s.AddTable(tab, keys, nil)
	s.Checkpoint(fs, "db/hashidx.ckpt")

	// The store drained and different tables exist now: checkpoint's table
	// list no longer matches.
	tab2, _ := buildTable(t, fs, 7, map[string]string{"new": "y"}, 50)
	metas := []manifest.TableMeta{tab2.Meta}
	open := func(m manifest.TableMeta) (*sstable.Reader, error) {
		f, err := fs.Open(filepath.Join("db", fmt.Sprintf("%06d.sst", m.FileNum)))
		if err != nil {
			return nil, err
		}
		return sstable.Open(f)
	}
	rs, err := Recover(fs, 256, metas, "db/hashidx.ckpt", false, false, open)
	r := &holder{rs}
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.Get([]byte("new")); !ok {
		t.Fatal("rebuild after stale checkpoint failed")
	}
	if _, ok, _ := r.Get([]byte("old")); ok {
		t.Fatal("stale checkpoint leaked entries")
	}
}

func TestResetAndReplaceAll(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	s := newHolder(256, false)
	tab, keys := buildTable(t, fs, 1, map[string]string{"a": "1", "b": "2"}, 1)
	s.AddTable(tab, keys, nil)
	s.ReplaceAll(nil)
	if s.NumTables() != 0 || s.SizeBytes() != 0 || s.Index().Count() != 0 {
		t.Fatal("Reset left state behind")
	}
	if _, ok, _ := s.Get([]byte("a")); ok {
		t.Fatal("Get after Reset")
	}

	merged, _ := buildTable(t, fs, 2, map[string]string{"a": "1", "b": "2", "c": "3"}, 10)
	if err := s.ReplaceAll(merged); err != nil {
		t.Fatal(err)
	}
	if s.NumTables() != 1 {
		t.Fatalf("NumTables=%d", s.NumTables())
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, ok, _ := s.Get([]byte(k)); !ok {
			t.Fatalf("%s missing after ReplaceAll", k)
		}
	}
}

// TestViewTracksTableSet verifies the sorted view stays in lockstep with
// WithTable / Replace, and that a view-less store keeps it off.
func TestViewTracksTableSet(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	s := newHolder(256, false)

	t1, k1 := buildTable(t, fs, 1, map[string]string{"a": "a1", "b": "b1"}, 1)
	t2, k2 := buildTable(t, fs, 2, map[string]string{"b": "b2", "c": "c2"}, 10)
	if err := s.AddTable(t1, k1, nil); err != nil {
		t.Fatal(err)
	}
	v1 := s.ScanView()
	if v1 == nil || v1.Len() != 2 || v1.NumTables() != 1 {
		t.Fatalf("after 1 table: %+v", v1)
	}
	if err := s.AddTable(t2, k2, nil); err != nil {
		t.Fatal(err)
	}
	v2 := s.ScanView()
	if v2.Len() != 4 || v2.NumTables() != 2 {
		t.Fatalf("after 2 tables: Len=%d NumTables=%d", v2.Len(), v2.NumTables())
	}
	if v2.Version() <= v1.Version() {
		t.Fatal("view version did not advance")
	}
	// The pinned old view is untouched by the new flush.
	if v1.Len() != 2 {
		t.Fatalf("pinned view mutated: Len=%d", v1.Len())
	}
	// Iterate: 4 entries, "b" twice with seq 10 (newest) before seq 2.
	it := v2.NewIterator()
	var got []string
	for ok := it.First(); ok; ok = it.Next() {
		rec := it.Record()
		got = append(got, fmt.Sprintf("%s/%d/%s", rec.Key, rec.Seq, rec.Value))
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	want := []string{"a/1/a1", "b/10/b2", "b/2/b1", "c/11/c2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("view order:\n got %v\nwant %v", got, want)
	}
	if _, _, builds, rebuilds := s.ViewStats(); builds != 2 || rebuilds != 0 {
		t.Fatalf("builds=%d rebuilds=%d", builds, rebuilds)
	}

	merged, _ := buildTable(t, fs, 3, map[string]string{"a": "a1", "b": "b2", "c": "c2"}, 20)
	if err := s.ReplaceAll(merged); err != nil {
		t.Fatal(err)
	}
	v3 := s.ScanView()
	if v3.Len() != 3 || v3.NumTables() != 1 {
		t.Fatalf("after ReplaceAll: Len=%d NumTables=%d", v3.Len(), v3.NumTables())
	}
	if _, _, builds, rebuilds := s.ViewStats(); builds != 3 || rebuilds != 0 {
		t.Fatalf("ReplaceAll should count one build, no rebuild: builds=%d rebuilds=%d", builds, rebuilds)
	}

	s.ReplaceAll(nil)
	if v := s.ScanView(); v.Len() != 0 || v.NumTables() != 0 {
		t.Fatal("Reset left view entries")
	}

	// Disabled store never materializes a view.
	d := newHolder(256, true)
	t4, k4 := buildTable(t, fs, 4, map[string]string{"x": "1"}, 30)
	if err := d.AddTable(t4, k4, nil); err != nil {
		t.Fatal(err)
	}
	if d.ScanView() != nil {
		t.Fatal("DisableView store returned a view")
	}
	if e, b, builds, rebuilds := d.ViewStats(); e != 0 || b != 0 || builds != 0 || rebuilds != 0 {
		t.Fatal("DisableView store reported view stats")
	}
}

// TestViewLazyRebuildAfterRecover verifies recovery defers view work: the
// recovered store starts with a stale view, the first ScanView rebuilds it
// over all tables (including any flushed after recovery while stale), and
// subsequent mutations go back to incremental maintenance.
func TestViewLazyRebuildAfterRecover(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	s := newHolder(256, false)
	var metas []manifest.TableMeta
	for i := 0; i < 3; i++ {
		tab, keys := buildTable(t, fs, uint64(i+1),
			map[string]string{fmt.Sprintf("k%d", i): fmt.Sprintf("v%d", i)}, uint64(i*10+1))
		s.AddTable(tab, keys, nil)
		metas = append(metas, tab.Meta)
	}
	open := func(m manifest.TableMeta) (*sstable.Reader, error) {
		f, err := fs.Open(filepath.Join("db", fmt.Sprintf("%06d.sst", m.FileNum)))
		if err != nil {
			return nil, err
		}
		return sstable.Open(f)
	}
	rs, err := Recover(fs, 256, metas, "", false, false, open)
	r := &holder{rs}
	if err != nil {
		t.Fatal(err)
	}
	if _, _, builds, rebuilds := r.ViewStats(); builds != 0 || rebuilds != 0 {
		t.Fatalf("recovery did eager view work: builds=%d rebuilds=%d", builds, rebuilds)
	}
	// A flush while stale must not corrupt the (unbuilt) view.
	tab4, keys4 := buildTable(t, fs, 4, map[string]string{"k3": "v3"}, 100)
	if err := r.AddTable(tab4, keys4, nil); err != nil {
		t.Fatal(err)
	}
	v := r.ScanView()
	if v == nil {
		t.Fatal("ScanView returned nil on enabled store")
	}
	if v.Len() != 4 || v.NumTables() != 4 {
		t.Fatalf("lazy rebuild: Len=%d NumTables=%d, want 4/4", v.Len(), v.NumTables())
	}
	if _, _, _, rebuilds := r.ViewStats(); rebuilds != 1 {
		t.Fatal("lazy rebuild not counted")
	}
	// Second ScanView reuses the rebuilt view.
	if v2 := r.ScanView(); v2.Version() != v.Version() {
		t.Fatal("repeated ScanView rebuilt again")
	}
	// Post-rebuild flushes are incremental again.
	tab5, keys5 := buildTable(t, fs, 5, map[string]string{"k4": "v4"}, 200)
	if err := r.AddTable(tab5, keys5, nil); err != nil {
		t.Fatal(err)
	}
	if v3 := r.ScanView(); v3.Len() != 5 {
		t.Fatalf("post-rebuild AddTable: Len=%d", v3.Len())
	}
	if _, _, builds, _ := r.ViewStats(); builds != 1 {
		t.Fatalf("post-rebuild AddTable not incremental: builds=%d", builds)
	}
}

// TestQuickModel: random overwrite workloads across many small tables agree
// with a model map.
func TestQuickModel(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		fs := vfs.NewMem()
		fs.MkdirAll("db")
		s := newHolder(512, false)
		model := map[string]string{}
		seq := uint64(1)
		for flush := 0; flush < 8; flush++ {
			batch := map[string]string{}
			for i := 0; i < rnd.Intn(40)+1; i++ {
				k := fmt.Sprintf("key-%03d", rnd.Intn(60))
				v := fmt.Sprintf("val-%d-%d", flush, rnd.Int63())
				batch[k] = v
				model[k] = v
			}
			tab, keys := buildTableQ(fs, uint64(flush+1), batch, seq)
			seq += uint64(len(batch))
			if err := s.AddTable(tab, keys, nil); err != nil {
				return false
			}
		}
		for k, v := range model {
			rec, ok, err := s.Get([]byte(k))
			if err != nil || !ok || string(rec.Value) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// buildTableQ is buildTable without *testing.T for quick properties.
func buildTableQ(fs vfs.FS, fileNum uint64, kvs map[string]string, seqBase uint64) (*sorted.Table, [][]byte) {
	keys := make([]string, 0, len(kvs))
	for k := range kvs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	name := filepath.Join("db", fmt.Sprintf("%06d.sst", fileNum))
	f, _ := fs.Create(name)
	b := sstable.NewBuilder(f, sstable.BuilderOptions{})
	var rawKeys [][]byte
	for i, k := range keys {
		b.Add(record.Record{Key: []byte(k), Seq: seqBase + uint64(i), Kind: record.KindSet, Value: []byte(kvs[k])})
		rawKeys = append(rawKeys, []byte(k))
	}
	props, _ := b.Finish()
	f.Close()
	rf, _ := fs.Open(name)
	rdr, _ := sstable.Open(rf)
	meta := manifest.TableMeta{
		FileNum: fileNum, Size: props.Size, Count: props.Count,
		Smallest: props.Smallest, Largest: props.Largest,
		MinSeq: props.MinSeq, MaxSeq: props.MaxSeq,
	}
	return &sorted.Table{Meta: meta, Reader: rdr}, rawKeys
}

// goldenCheckpointSum is the SHA-256 of the checkpoint file below as the
// previous Checkpoint wrote it (index marshaled on its own, then copied
// behind the table list): building it in one buffer changed no byte.
const goldenCheckpointSum = "944f7f5a4e705dc52e53755952e33a9ba1c43cec060e58acf408226d098ca854"

func TestCheckpointGoldenBytes(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	s := newHolder(64, false)
	for i := 0; i < 3; i++ {
		kvs := map[string]string{}
		for j := 0; j < 200; j++ {
			kvs[fmt.Sprintf("k%d-%04d", i, j)] = "v"
		}
		tab, keys := buildTable(t, fs, uint64(300*(i+1)), kvs, uint64(i*1000+1))
		if err := s.AddTable(tab, keys, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(fs, "db/hashidx.ckpt"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("db/hashidx.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != goldenCheckpointSum {
		t.Fatalf("checkpoint hashes to %s, want %s", got, goldenCheckpointSum)
	}
}

// benchStore is 8 flushed tables of 2048 keys behind the hash index, the
// shape of a partition's UnsortedStore in the ledger's dataset.
func benchStore(b *testing.B) (*Store, [][]byte) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	s := newHolder(1<<16, true)
	var all [][]byte
	for t := 0; t < 8; t++ {
		kvs := map[string]string{}
		for i := 0; i < 2048; i++ {
			kvs[fmt.Sprintf("user%020d", (i*8+t)*7919%1000003)] = "value"
		}
		tab, keys := buildTable(b, fs, uint64(t+1), kvs, uint64(t*2048+1))
		if err := s.AddTable(tab, keys, nil); err != nil {
			b.Fatal(err)
		}
		all = append(all, keys...)
	}
	return s.Store, all
}

// BenchmarkGetHit: the hash probe, then one table's index search, block
// read (no cache is attached) and in-block search.
func BenchmarkGetHit(b *testing.B) {
	s, keys := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i*7919%len(keys)]
		if _, ok, err := s.Get(k); !ok || err != nil {
			b.Fatalf("%s: %v %v", k, ok, err)
		}
	}
}

// BenchmarkGetAbsent: the hash probe alone — what every get that ends in the
// SortedStore pays on its way past.
func BenchmarkGetAbsent(b *testing.B) {
	s, _ := benchStore(b)
	absent := make([][]byte, 1024)
	for i := range absent {
		absent[i] = []byte(fmt.Sprintf("miss%020d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(absent[i%len(absent)]); ok || err != nil {
			b.Fatalf("%v %v", ok, err)
		}
	}
}

// writeTable writes recs, in table order, as table num.
func writeTable(t testing.TB, fs vfs.FS, num uint64, recs []record.Record) *sorted.Table {
	t.Helper()
	name := filepath.Join("db", fmt.Sprintf("%06d.sst", num))
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	b := sstable.NewBuilder(f, sstable.BuilderOptions{BlockSize: 256})
	for _, r := range recs {
		b.Add(r)
	}
	props, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	rf, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	rdr, err := sstable.Open(rf)
	if err != nil {
		t.Fatal(err)
	}
	return &sorted.Table{Reader: rdr, Meta: manifest.TableMeta{
		FileNum: num, Size: props.Size, Count: props.Count,
		Smallest: props.Smallest, Largest: props.Largest, MinSeq: props.MinSeq, MaxSeq: props.MaxSeq,
	}}
}

// replaceCase is one random table list, a merged prefix of it and, for a
// scan merge, the head that prefix merges into.
type replaceCase struct {
	src     *Store
	merged  int
	head    *sorted.Table
	keys    [][]byte
	entries []sortedview.Entry
	space   int // keys key-000 .. of the key space, some never written
}

// newReplaceCase builds 2–7 tables over a 60-key space (overlapping keys,
// repeated versions, some tombstones) into a store with a small index, so
// chains form; half the time an unpublished WithTable successor inserts
// into the shared index, as a failed flush commit leaves it. With unbuilt
// the store is recovered (view unbuilt) rather than flushed into.
func newReplaceCase(t *testing.T, rnd *rand.Rand, disableIndex, disableView, unbuilt bool) replaceCase {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	const space, buckets = 60, 32
	c := replaceCase{src: New(buckets, disableIndex, disableView), space: space}
	seq := uint64(1)
	table := func(num uint64) *sorted.Table {
		var recs []record.Record
		for k := 0; k < space; k++ {
			if rnd.Intn(3) == 0 {
				kind := record.KindSet
				if rnd.Intn(8) == 0 {
					kind = record.KindDelete
				}
				recs = append(recs, record.Record{Key: []byte(fmt.Sprintf("key-%03d", k)), Seq: seq, Kind: kind,
					Value: []byte(fmt.Sprintf("v%d-%d", num, seq))})
				seq++
			}
		}
		if len(recs) == 0 {
			recs = append(recs, record.Record{Key: []byte("key-000"), Seq: seq, Kind: record.KindSet, Value: []byte("only")})
			seq++
		}
		return writeTable(t, fs, num, recs)
	}
	n := 2 + rnd.Intn(6)
	var metas []manifest.TableMeta
	for i := 1; i <= n; i++ {
		tb := table(uint64(i))
		metas = append(metas, tb.Meta)
		next, err := c.src.WithTable(tb, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.src = next
	}
	if unbuilt {
		rs, err := Recover(fs, buckets, metas, "", disableIndex, disableView, func(m manifest.TableMeta) (*sstable.Reader, error) {
			f, err := fs.Open(filepath.Join("db", fmt.Sprintf("%06d.sst", m.FileNum)))
			if err != nil {
				return nil, err
			}
			return sstable.Open(f)
		})
		if err != nil {
			t.Fatal(err)
		}
		c.src = rs
	}
	if rnd.Intn(2) == 0 {
		if _, err := c.src.WithTable(table(99), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.merged = rnd.Intn(n + 1)
	if c.merged > 0 && rnd.Intn(2) == 0 {
		// The scan merge's output: the newest version of each key across
		// the prefix, tombstones kept.
		newest := map[string]record.Record{}
		for _, tb := range c.src.Tables()[:c.merged] {
			entries, err := sortedview.Collect(tb.Reader)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				rec, _, err := tb.Reader.Get(e.Key)
				if err != nil {
					t.Fatal(err)
				}
				if old, ok := newest[string(e.Key)]; !ok || rec.Seq > old.Seq {
					newest[string(e.Key)] = record.Record{Key: e.Key, Seq: rec.Seq, Kind: rec.Kind, Value: append([]byte(nil), rec.Value...)}
				}
			}
		}
		recs := make([]record.Record, 0, len(newest))
		for _, r := range newest {
			recs = append(recs, r)
		}
		sort.Slice(recs, func(i, j int) bool { return string(recs[i].Key) < string(recs[j].Key) })
		c.head = writeTable(t, fs, 100, recs)
		var err error
		if c.keys, c.entries, err = collect(c.head); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// scratch is the store WithTable builds over Replace's table list.
func (c replaceCase) scratch(t *testing.T) *Store {
	s := New(32, c.src.disableIndex, c.src.disableView)
	tables := c.src.Tables()[c.merged:]
	if c.head != nil {
		tables = append([]*sorted.Table{c.head}, tables...)
	}
	for _, tb := range tables {
		var err error
		if s, err = s.WithTable(tb, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestReplaceMatchesScratch: the store Replace derives for a merge (no
// head) or scan merge (head) of a random prefix answers every Get, present
// and absent keys alike, as a store built from scratch over the same table
// list, and its view holds the same records in the same order — with the
// view built, unbuilt (it stays so) and disabled, and with the index off.
func TestReplaceMatchesScratch(t *testing.T) {
	for _, m := range []struct {
		name                           string
		disableIndex, disableView, unb bool
	}{
		{"view-built", false, false, false},
		{"view-unbuilt", false, false, true},
		{"view-off", false, true, false},
		{"index-off", true, false, false},
	} {
		t.Run(m.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				rnd := rand.New(rand.NewSource(seed))
				c := newReplaceCase(t, rnd, m.disableIndex, m.disableView, m.unb)
				got, want := c.src.Replace(c.merged, c.head, c.keys, c.entries), c.scratch(t)
				what := fmt.Sprintf("seed %d, %d tables, merged %d, head %v", seed, c.src.NumTables(), c.merged, c.head != nil)
				if got.NumTables() != want.NumTables() || got.SizeBytes() != want.SizeBytes() || got.Index().Count() != want.Index().Count() {
					t.Fatalf("%s: tables %d/%d, bytes %d/%d, index entries %d/%d", what,
						got.NumTables(), want.NumTables(), got.SizeBytes(), want.SizeBytes(), got.Index().Count(), want.Index().Count())
				}
				for k := 0; k < c.space+5; k++ {
					key := []byte(fmt.Sprintf("key-%03d", k))
					g, gok, gerr := got.Get(key)
					w, wok, werr := want.Get(key)
					if gerr != nil || werr != nil || gok != wok || gok && (g.Seq != w.Seq || g.Kind != w.Kind || string(g.Value) != string(w.Value)) {
						t.Fatalf("%s: Get(%s) = %v %v %v, from scratch %v %v %v", what, key, g, gok, gerr, w, wok, werr)
					}
				}
				switch {
				case m.disableView:
					if got.View() != nil || got.NeedsView() {
						t.Fatalf("%s: a disabled view came back", what)
					}
				case m.unb:
					if !got.NeedsView() {
						t.Fatalf("%s: an unbuilt view was built", what)
					}
				default:
					sameView(t, what, got.View(), want.View())
				}
			}
		})
	}
}

// sameView compares two views record by record.
func sameView(t *testing.T, what string, a, b *sortedview.View) {
	t.Helper()
	if a.Len() != b.Len() || a.NumTables() != b.NumTables() || a.MemoryBytes() != b.MemoryBytes() {
		t.Fatalf("%s: view of %d entries over %d tables (%d B), from scratch %d over %d (%d B)",
			what, a.Len(), a.NumTables(), a.MemoryBytes(), b.Len(), b.NumTables(), b.MemoryBytes())
	}
	ia, ib := a.NewIterator(), b.NewIterator()
	for i, oka, okb := 0, ia.First(), ib.First(); oka || okb; i, oka, okb = i+1, ia.Next(), ib.Next() {
		ra, rb := ia.Record(), ib.Record()
		if oka != okb || string(ra.Key) != string(rb.Key) || ra.Seq != rb.Seq || ra.Kind != rb.Kind || string(ra.Value) != string(rb.Value) {
			t.Fatalf("%s: view record %d = %v (%v), from scratch %v (%v)", what, i, ra, oka, rb, okb)
		}
	}
	if ia.Err() != nil || ib.Err() != nil {
		t.Fatalf("%s: %v, %v", what, ia.Err(), ib.Err())
	}
}

// TestReplaceBesideLookups runs Gets on a store — hash lookups on the index
// Replace carries from — while Replace derives successors from it: run it
// with -race.
func TestReplaceBesideLookups(t *testing.T) {
	c := newReplaceCase(t, rand.New(rand.NewSource(7)), false, false, false)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := c.src.Get([]byte(fmt.Sprintf("key-%03d", i%c.space))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		c.src.Replace(i%(c.src.NumTables()+1), nil, nil, nil)
	}
	close(stop)
	wg.Wait()
}

// TestReplaceAfterRecoverAtOtherGeometry: a store reopened with another
// bucket count than its checkpoint's replays the tables instead of loading
// the checkpoint, so a later Replace carries entries between indexes of one
// geometry and every key still reads its newest version from a survivor.
func TestReplaceAfterRecoverAtOtherGeometry(t *testing.T) {
	for _, buckets := range []int{16, 64} {
		fs := vfs.NewMem()
		fs.MkdirAll("db")
		s := New(32, false, false)
		var metas []manifest.TableMeta
		for i := 1; i <= 4; i++ {
			var recs []record.Record
			for k := 0; k < 40; k++ {
				recs = append(recs, record.Record{Key: []byte(fmt.Sprintf("key-%03d", k)), Seq: uint64(i*100 + k),
					Kind: record.KindSet, Value: []byte(fmt.Sprintf("v%d", i))})
			}
			tb := writeTable(t, fs, uint64(i), recs)
			metas = append(metas, tb.Meta)
			var err error
			if s, err = s.WithTable(tb, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(fs, "db/hashidx.ckpt"); err != nil {
			t.Fatal(err)
		}
		rs, err := Recover(fs, buckets, metas, "db/hashidx.ckpt", false, false, func(m manifest.TableMeta) (*sstable.Reader, error) {
			f, err := fs.Open(filepath.Join("db", fmt.Sprintf("%06d.sst", m.FileNum)))
			if err != nil {
				return nil, err
			}
			return sstable.Open(f)
		})
		if err != nil {
			t.Fatal(err)
		}
		got := rs.Replace(1, nil, nil, nil)
		for k := 0; k < 40; k++ {
			key := []byte(fmt.Sprintf("key-%03d", k))
			if rec, ok, err := got.Get(key); err != nil || !ok || string(rec.Value) != "v4" {
				t.Fatalf("%d buckets: Get(%s) after Replace = %q %v %v, want v4", buckets, key, rec.Value, ok, err)
			}
		}
	}
}
