package unsorted

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
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

func (h *holder) ReplaceAll(tables ...*sorted.Table) error {
	next, err := h.Rebuild(tables)
	if err == nil {
		h.Store = next
	}
	return err
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
// them; Rebuild starts a fresh index and leaves the old chain alone.
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
	s3, err := s2.Rebuild([]*sorted.Table{t2})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Index() == s2.Index() {
		t.Fatal("Rebuild must not reuse the index")
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
	s.ReplaceAll()
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
// WithTable / Rebuild, and that a view-less store keeps it off.
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
	if _, _, _, rebuilds := s.ViewStats(); rebuilds != 1 {
		t.Fatal("ReplaceAll should count one rebuild")
	}

	s.ReplaceAll()
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
