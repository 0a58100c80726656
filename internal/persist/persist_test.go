// Tests live in persist_test (not persist) so they can import the index
// packages whose init functions register the snapshot loaders — the
// reverse import (index package → persist) would cycle otherwise.
package persist_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/fqt"
	"metricindex/internal/mtree"
	"metricindex/internal/omni"
	"metricindex/internal/persist"
	"metricindex/internal/pivot"
	"metricindex/internal/ptree"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// restoredIndex adapts a decoded snapshot to the equivalence harness:
// queries go to the restored index, and the harness's updates are
// mirrored into the restored dataset so both sides stay in lockstep
// (the harness inserts into the *original* dataset and hands us the id).
type restoredIndex struct {
	idx core.Index
	rds *core.Dataset // the snapshot's dataset copy
	ods *core.Dataset // the harness's dataset
}

func (rt *restoredIndex) RangeSearch(q core.Object, r float64) ([]int, error) {
	return rt.idx.RangeSearch(q, r)
}

func (rt *restoredIndex) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return rt.idx.KNNSearch(q, k)
}

func (rt *restoredIndex) Insert(id int) error {
	// Both datasets started as identical full slot arrays and see the
	// same insert/delete sequence, so the assigned ids must agree.
	if got := rt.rds.Insert(rt.ods.Object(id)); got != id {
		return fmt.Errorf("restored dataset assigned id %d, want %d", got, id)
	}
	return rt.idx.Insert(id)
}

func (rt *restoredIndex) Delete(id int) error {
	if err := rt.idx.Delete(id); err != nil {
		return err
	}
	return rt.rds.Delete(id)
}

// snapshotKind describes one registered index family for the round-trip
// test: how to build it, and whether it needs a discrete metric.
type snapshotKind struct {
	kind     string
	discrete bool
	build    func(ed testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error)
}

func eptOptions(workers int) table.EPTOptions {
	return table.EPTOptions{L: 4, Radius: 10,
		Sel: pivot.Options{Seed: 3, SampleSize: 128}, Workers: workers}
}

var snapshotKinds = []snapshotKind{
	{"LAESA", false, func(ed testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return table.NewLAESAParallel(ds, ed.Pivots, workers)
	}},
	{"AESA", false, func(_ testutil.EquivDataset, ds *core.Dataset, _ int) (core.Index, error) {
		return table.NewAESA(ds)
	}},
	{"FQT", true, func(ed testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return ptree.NewFQT(ds, ed.Pivots, ptree.Options{MaxDistance: ed.MaxDistance, Workers: workers})
	}},
	{"FQA", true, func(ed testutil.EquivDataset, ds *core.Dataset, _ int) (core.Index, error) {
		return fqt.NewFQA(ds, ed.Pivots)
	}},
	{"BKT", true, func(ed testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return ptree.NewBKT(ds, ptree.Options{MaxDistance: ed.MaxDistance, Seed: 5, Workers: workers})
	}},
	{"VPT", false, func(ed testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return ptree.NewMVPT(ds, ed.Pivots, ptree.Options{Arity: 2, Workers: workers})
	}},
	{"MVPT", false, func(ed testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return ptree.NewMVPT(ds, ed.Pivots, ptree.Options{Arity: 5, Workers: workers})
	}},
	{"EPT", false, func(_ testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return table.NewEPT(ds, eptOptions(workers))
	}},
	{"EPT*", false, func(_ testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return table.NewEPTStar(ds, eptOptions(workers))
	}},
	{"DiskEPT*", false, func(_ testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return table.NewDiskEPTStar(ds, store.NewPager(512), eptOptions(workers))
	}},
	{"CPT", false, func(ed testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return table.NewCPT(ds, store.NewPager(512), ed.Pivots, 0, workers)
	}},
	{"PM-tree", false, func(ed testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return mtree.NewPMTree(ds, store.NewPager(512), ed.Pivots, 0, workers)
	}},
	{"SPB-tree", false, func(ed testutil.EquivDataset, ds *core.Dataset, _ int) (core.Index, error) {
		return spb.New(ds, store.NewPager(512), ed.Pivots, spb.Options{MaxDistance: ed.MaxDistance})
	}},
	{"M-index", false, func(ed testutil.EquivDataset, ds *core.Dataset, _ int) (core.Index, error) {
		return spb.NewMIndex(ds, store.NewPager(512), ed.Pivots, spb.MIndexOptions{MaxNum: 24, MaxDistance: ed.MaxDistance})
	}},
	{"M-index*", false, func(ed testutil.EquivDataset, ds *core.Dataset, _ int) (core.Index, error) {
		return spb.NewMIndex(ds, store.NewPager(512), ed.Pivots, spb.MIndexOptions{Star: true, MaxNum: 24, MaxDistance: ed.MaxDistance})
	}},
	{"Omni-seq", false, func(ed testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return table.NewOmniSeq(ds, store.NewPager(512), ed.Pivots, workers)
	}},
	{"OmniB+-tree", false, func(ed testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return omni.NewBPlus(ds, store.NewPager(512), ed.Pivots, workers)
	}},
	{"OmniR-tree", false, func(ed testutil.EquivDataset, ds *core.Dataset, workers int) (core.Index, error) {
		return mtree.NewOmniRTree(ds, store.NewPager(512), ed.Pivots, ed.MaxDistance, workers)
	}},
}

// TestSnapshotRoundTripEquivalence proves, for every registered index
// family, that an Encode→Decode round trip preserves answers and leaves
// the restored structure updatable. It reuses the shared metamorphic
// harness: the "parallel" build is replaced by the round-tripped one, so
// property (a) becomes "the restored index answers every MRQ and MkNNQ
// identically to a freshly built one", (b) checks both against a linear
// scan, and (c) drives insert-then-delete round trips through the
// restored structure.
func TestSnapshotRoundTripEquivalence(t *testing.T) {
	for _, sk := range snapshotKinds {
		t.Run(sk.kind, func(t *testing.T) {
			for _, ed := range testutil.EquivDatasets(sk.discrete, 250, 7) {
				ed := ed
				build := func(ds *core.Dataset, workers int) (testutil.EquivIndex, error) {
					idx, err := sk.build(ed, ds, workers)
					if err != nil || workers == 1 {
						return idx, err
					}
					data, err := persist.Encode(ds, idx, 7)
					if err != nil {
						return nil, fmt.Errorf("Encode: %w", err)
					}
					snap, err := persist.Decode(data)
					if err != nil {
						return nil, fmt.Errorf("Decode: %w", err)
					}
					if snap.Kind != sk.kind || snap.Epoch != 7 {
						return nil, fmt.Errorf("decoded kind %q epoch %d, want %q epoch 7", snap.Kind, snap.Epoch, sk.kind)
					}
					if snap.Dataset.Len() != ds.Len() || snap.Dataset.Count() != ds.Count() {
						return nil, fmt.Errorf("decoded dataset %d/%d slots, want %d/%d",
							snap.Dataset.Count(), snap.Dataset.Len(), ds.Count(), ds.Len())
					}
					return &restoredIndex{idx: snap.Index, rds: snap.Dataset, ods: ds}, nil
				}
				testutil.CheckEquivalence(t, ed, build, testutil.EquivOptions{})
			}
		})
	}
}

// TestSnapshotKindsRegistry checks every family the round-trip test
// covers is in the registry (a missing init import would silently skip).
func TestSnapshotKindsRegistry(t *testing.T) {
	reg := map[string]bool{}
	for _, k := range persist.Kinds() {
		reg[k] = true
	}
	for _, sk := range snapshotKinds {
		if !reg[sk.kind] {
			t.Errorf("kind %q has no registered loader", sk.kind)
		}
	}
}

// TestSaveLoadFile exercises the file layer: atomic save, load, and the
// reopened pager of a disk-resident kind.
func TestSaveLoadFile(t *testing.T) {
	ds := testutil.VectorDataset(120, 4, 100, core.L2{}, 11)
	pv := testutil.SpreadPivots(ds, 4)
	idx, err := spb.New(ds, store.NewPager(512), pv, spb.Options{MaxDistance: 200})
	if err != nil {
		t.Fatal(err)
	}
	data, err := persist.Encode(ds, idx, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snapshot.mxs")
	if err := persist.SaveFile(path, data); err != nil {
		t.Fatal(err)
	}
	snap, err := persist.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Kind != "SPB-tree" || snap.Metric != "L2" || snap.Epoch != 42 {
		t.Fatalf("got kind %q metric %q epoch %d", snap.Kind, snap.Metric, snap.Epoch)
	}
	if snap.Pager == nil {
		t.Fatal("disk-resident kind restored without a pager")
	}
	q := testutil.RandomQuery(ds, 1)
	for _, r := range testutil.Radii(ds, q) {
		want, err := idx.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.Index.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("MRQ(r=%v) after reload:\n got %v\nwant %v", r, got, want)
		}
	}
}

// TestEncodeRejectsNonSnapshotter: an index with no snapshot codec
// fails to encode with an error naming it.
func TestEncodeRejectsNonSnapshotter(t *testing.T) {
	ds := testutil.VectorDataset(40, 3, 100, core.L2{}, 11)
	if _, err := persist.Encode(ds, linearIndex{}, 0); err == nil || !strings.Contains(err.Error(), "linear") {
		t.Fatalf("Encode of an index with no codec = %v, want an error naming it", err)
	}
}

// linearIndex is a core.Index with no snapshot codec.
type linearIndex struct{}

func (linearIndex) Name() string                                        { return "linear" }
func (linearIndex) RangeSearch(core.Object, float64) ([]int, error)     { return nil, nil }
func (linearIndex) KNNSearch(core.Object, int) ([]core.Neighbor, error) { return nil, nil }
func (linearIndex) Len() int                                            { return 0 }
func (linearIndex) PageAccesses() int64                                 { return 0 }
func (linearIndex) ResetStats()                                         {}
func (linearIndex) MemBytes() int64                                     { return 0 }
func (linearIndex) DiskBytes() int64                                    { return 0 }
func (linearIndex) Insert(int) error                                    { return nil }
func (linearIndex) Delete(int) error                                    { return nil }

// TestDecodeRejectsUnregisteredKind: an image whose kind has no loader
// fails to decode with an error naming the kind.
func TestDecodeRejectsUnregisteredKind(t *testing.T) {
	ds := testutil.VectorDataset(40, 3, 100, core.L2{}, 11)
	idx, err := table.NewLAESA(ds, testutil.SpreadPivots(ds, 3))
	if err != nil {
		t.Fatal(err)
	}
	data, err := persist.Encode(ds, idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same length, so the header's framing still holds.
	forged := bytes.Replace(data, []byte("LAESA"), []byte("NOSUC"), 1)
	if _, err := persist.Decode(forged); err == nil || !strings.Contains(err.Error(), "NOSUC") {
		t.Fatalf("Decode of an unregistered kind = %v, want an error naming it", err)
	}
}

// TestDecodeRejectsCorruption flips every byte of a valid snapshot (in
// strides) and requires Decode to fail cleanly — never to panic, and
// never to return a success for a damaged image outside the payload
// bytes that the checksums provably cover.
func TestDecodeRejectsCorruption(t *testing.T) {
	ds := testutil.VectorDataset(40, 3, 100, core.L2{}, 5)
	idx, err := table.NewLAESA(ds, testutil.SpreadPivots(ds, 3))
	if err != nil {
		t.Fatal(err)
	}
	data, err := persist.Encode(ds, idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := persist.Decode(data); err != nil {
		t.Fatalf("pristine image must decode: %v", err)
	}
	// Truncations at every prefix length must fail, not panic.
	for n := 0; n < len(data); n++ {
		if _, err := persist.Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Single-byte corruption in the sections is caught by the CRCs and in
	// the header by field validation — except the epoch tag, which is
	// header metadata outside any checksum: a flip there changes the
	// reported epoch but the image still decodes (the layout constants
	// mirror the spec in docs/PERSISTENCE.md).
	epochOff := len("MXSNAP") + 2 + 1 + 4 + len("LAESA") + 4 + len("L2")
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x41
		snap, err := persist.Decode(mut)
		if off >= epochOff && off < epochOff+8 {
			if err != nil || snap.Epoch == 1 {
				t.Fatalf("epoch-field flip at offset %d: err=%v epoch=%v", off, err, snap)
			}
			continue
		}
		if err == nil {
			t.Fatalf("flip at offset %d decoded successfully", off)
		}
	}
}

// TestDecodeRejectsMixedKindDataset encodes a LAESA snapshot whose
// dataset section holds a Word in slot 2 among L2 vectors and requires
// Decode to fail. Accepted, the first range query panicked measuring a
// vector against the Word.
func TestDecodeRejectsMixedKindDataset(t *testing.T) {
	ds := testutil.VectorDataset(40, 3, 100, core.L2{}, 5)
	idx, err := table.NewLAESA(ds, []int{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	objs := append([]core.Object(nil), ds.Objects()...)
	objs[2] = core.Word("foreign")
	mixed := core.NewDataset(core.NewSpace(core.L2{}), objs)
	data, err := persist.Encode(mixed, idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := persist.Decode(data); err == nil {
		t.Fatal("Decode accepted a dataset whose slot 2 is a Word among L2 vectors")
	}
}

// buildLive makes a small durable Live front for the WAL tests.
func buildLive(t *testing.T, n int) (*epoch.Live, *core.Dataset) {
	t.Helper()
	ds := testutil.VectorDataset(n, 4, 100, core.L2{}, 3)
	idx, err := table.NewLAESA(ds, testutil.SpreadPivots(ds, 3))
	if err != nil {
		t.Fatal(err)
	}
	return epoch.NewLive(ds, idx), ds
}

// checkSameAnswers requires two Lives to answer a probe set identically.
func checkSameAnswers(t *testing.T, want, got *epoch.Live, ds *core.Dataset) {
	t.Helper()
	for qs := int64(0); qs < 3; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range testutil.Radii(ds, q) {
			a, err := want.RangeSearch(q, r)
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.RangeSearch(q, r)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("MRQ(r=%v) diverged after recovery:\n want %v\n got  %v", r, a, b)
			}
		}
		a, err := want.KNNSearch(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.KNNSearch(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("MkNNQ(k=5) diverged after recovery:\n want %v\n got  %v", a, b)
		}
	}
}

// TestCrashRecoveryExactEpochs is the end-to-end durability test: a
// snapshot at epoch 0, a run of journaled writes, a simulated crash
// (nothing flushed beyond what Append guaranteed), then
// OpenLive + OpenWAL + Replay. The recovered front must sit at the exact
// pre-crash epoch, hold the exact pre-crash dataset, and answer queries
// identically; the WAL records must carry the exact commit epochs.
func TestCrashRecoveryExactEpochs(t *testing.T) {
	live, ds := buildLive(t, 100)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snapshot.mxs")
	walPath := filepath.Join(dir, "wal.mxl")

	if err := persist.SaveLive(snapPath, live); err != nil {
		t.Fatal(err)
	}
	wal, recs, torn, err := persist.OpenWAL(walPath, persist.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || torn {
		t.Fatalf("fresh WAL: %d records, torn=%v", len(recs), torn)
	}
	live.SetJournal(wal)

	// A mixed write history: adds, a remove, and another add, each
	// committing at the next epoch.
	var wantEpochs []uint64
	obj := func(seed int64) core.Object { return testutil.RandomQuery(ds, seed) }
	id1, e, err := live.AddAttrsAt(obj(1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEpochs = append(wantEpochs, e)
	_, e, err = live.AddAttrsAt(obj(1001), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEpochs = append(wantEpochs, e)
	if e, err = live.RemoveAt(id1); err != nil {
		t.Fatal(err)
	}
	wantEpochs = append(wantEpochs, e)
	_, e, err = live.AddAttrsAt(obj(1002), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEpochs = append(wantEpochs, e)
	for i, want := range wantEpochs {
		if want != uint64(i+1) {
			t.Fatalf("write %d committed at epoch %d, want %d", i, want, i+1)
		}
	}
	// Crash: abandon the Live without closing anything gracefully. The
	// WAL file already holds every committed record (SyncAlways).

	live2, snap, err := persist.OpenLive(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 0 || live2.Epoch() != 0 {
		t.Fatalf("snapshot restored at epoch %d/%d, want 0", snap.Epoch, live2.Epoch())
	}
	wal2, recs, torn, err := persist.OpenWAL(walPath, persist.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if torn {
		t.Fatal("clean WAL reported a torn tail")
	}
	if len(recs) != len(wantEpochs) {
		t.Fatalf("WAL holds %d records, want %d", len(recs), len(wantEpochs))
	}
	for i, rec := range recs {
		if rec.Epoch != wantEpochs[i] {
			t.Fatalf("record %d at epoch %d, want %d", i, rec.Epoch, wantEpochs[i])
		}
	}
	applied, err := persist.Replay(live2, recs)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(recs) {
		t.Fatalf("replayed %d records, want %d", applied, len(recs))
	}
	if live2.Epoch() != live.Epoch() {
		t.Fatalf("recovered epoch %d, want %d", live2.Epoch(), live.Epoch())
	}
	checkSameAnswers(t, live, live2, ds)

	// Replay must be idempotent: records at or before the current epoch
	// are part of the restored state already and are skipped.
	if applied, err = persist.Replay(live2, recs); err != nil || applied != 0 {
		t.Fatalf("second replay applied %d records (err %v), want 0", applied, err)
	}
}

// TestReplaySkipsSnapshottedPrefix snapshots mid-history and verifies
// replay applies only the suffix committed after the snapshot epoch.
func TestReplaySkipsSnapshottedPrefix(t *testing.T) {
	live, ds := buildLive(t, 80)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snapshot.mxs")
	walPath := filepath.Join(dir, "wal.mxl")
	wal, _, _, err := persist.OpenWAL(walPath, persist.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	live.SetJournal(wal)

	for i := int64(0); i < 3; i++ {
		if _, _, err := live.AddAttrsAt(testutil.RandomQuery(ds, 2000+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot at epoch 3; two more writes follow it.
	if err := persist.SaveLive(snapPath, live); err != nil {
		t.Fatal(err)
	}
	for i := int64(3); i < 5; i++ {
		if _, _, err := live.AddAttrsAt(testutil.RandomQuery(ds, 2000+i), nil); err != nil {
			t.Fatal(err)
		}
	}

	live2, snap, err := persist.OpenLive(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 3 {
		t.Fatalf("snapshot at epoch %d, want 3", snap.Epoch)
	}
	wal2, recs, _, err := persist.OpenWAL(walPath, persist.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if len(recs) != 5 {
		t.Fatalf("WAL holds %d records, want 5", len(recs))
	}
	applied, err := persist.Replay(live2, recs)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("replayed %d records over the epoch-3 snapshot, want 2", applied)
	}
	if live2.Epoch() != 5 {
		t.Fatalf("recovered epoch %d, want 5", live2.Epoch())
	}
	checkSameAnswers(t, live, live2, ds)
}

// TestWALTornTail crashes the log mid-append in three ways — a truncated
// frame, a corrupted checksum, and a garbage length — and requires open
// to keep the valid prefix, report the tear, and truncate the file so
// the next open is clean.
func TestWALTornTail(t *testing.T) {
	tears := []struct {
		name string
		tear func(data []byte) []byte
	}{
		{"truncated-frame", func(data []byte) []byte {
			return data[:len(data)-5] // half the last record
		}},
		{"corrupt-payload", func(data []byte) []byte {
			mut := append([]byte(nil), data...)
			mut[len(mut)-1] ^= 0xFF
			return mut
		}},
		{"garbage-length", func(data []byte) []byte {
			return append(data, 0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4)
		}},
	}
	for _, tc := range tears {
		t.Run(tc.name, func(t *testing.T) {
			live, ds := buildLive(t, 60)
			walPath := filepath.Join(t.TempDir(), "wal.mxl")
			wal, _, _, err := persist.OpenWAL(walPath, persist.SyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			live.SetJournal(wal)
			for i := int64(0); i < 4; i++ {
				if _, _, err := live.AddAttrsAt(testutil.RandomQuery(ds, 3000+i), nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, tc.tear(data), 0o644); err != nil {
				t.Fatal(err)
			}

			wal2, recs, torn, err := persist.OpenWAL(walPath, persist.SyncOff)
			if err != nil {
				t.Fatal(err)
			}
			if !torn {
				t.Fatal("torn tail not reported")
			}
			wantRecs := 4
			if tc.name != "garbage-length" {
				wantRecs = 3 // the damaged record itself is dropped
			}
			if len(recs) != wantRecs {
				t.Fatalf("kept %d records, want %d", len(recs), wantRecs)
			}
			for i, rec := range recs {
				if rec.Epoch != uint64(i+1) {
					t.Fatalf("record %d at epoch %d, want %d", i, rec.Epoch, i+1)
				}
			}
			if err := wal2.Close(); err != nil {
				t.Fatal(err)
			}
			// The tear was truncated away: the next open is clean and
			// sees the same records.
			wal3, recs2, torn2, err := persist.OpenWAL(walPath, persist.SyncOff)
			if err != nil {
				t.Fatal(err)
			}
			defer wal3.Close()
			if torn2 || len(recs2) != wantRecs {
				t.Fatalf("after repair: torn=%v records=%d, want clean %d", torn2, len(recs2), wantRecs)
			}
		})
	}
}

// TestWALTruncateThrough verifies snapshot-driven log compaction: only
// records after the snapshot epoch survive, across a reopen too.
func TestWALTruncateThrough(t *testing.T) {
	live, ds := buildLive(t, 60)
	walPath := filepath.Join(t.TempDir(), "wal.mxl")
	wal, _, _, err := persist.OpenWAL(walPath, persist.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	live.SetJournal(wal)
	for i := int64(0); i < 5; i++ {
		if _, _, err := live.AddAttrsAt(testutil.RandomQuery(ds, 4000+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.TruncateThrough(3); err != nil {
		t.Fatal(err)
	}
	if st := wal.Stats(); st.Records != 2 {
		t.Fatalf("after TruncateThrough(3): %d records, want 2", st.Records)
	}
	// The truncated log must stay appendable…
	if _, _, err := live.AddAttrsAt(testutil.RandomQuery(ds, 4005), nil); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	// …and a reopen sees exactly the surviving suffix.
	wal2, recs, torn, err := persist.OpenWAL(walPath, persist.SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if torn {
		t.Fatal("compacted WAL reported a torn tail")
	}
	want := []uint64{4, 5, 6}
	if len(recs) != len(want) {
		t.Fatalf("reopened with %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Epoch != want[i] {
			t.Fatalf("record %d at epoch %d, want %d", i, rec.Epoch, want[i])
		}
	}
}

// TestWALRejectsUnframableAttrs: a record whose attribute bag holds a
// value longer than its u16 frame is refused before anything is written.
// Written anyway, the truncated length misframes the record: it passes
// its checksum, fails to decode, and the next open takes it for a torn
// tail and cuts it and every acknowledged record after it.
func TestWALRejectsUnframableAttrs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.mxl")
	wal, _, _, err := persist.OpenWAL(path, persist.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	long := core.Attrs{"note": core.StringValue(string(make([]byte, 70000)))}
	if err := wal.Append(epoch.OpAdd, 1, 0, core.Vector{1, 2}, core.Attrs{"a": core.IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(epoch.OpSetAttrs, 2, 0, nil, long); err == nil {
		t.Error("a 70 000-byte attribute string was appended")
	}
	if err := wal.Append(epoch.OpRemove, 3, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	wal, recs, truncated, err := persist.OpenWAL(path, persist.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if truncated || len(recs) != 2 || recs[1].Op != epoch.OpRemove {
		t.Fatalf("reopened log: %d records, truncated %v; want both acknowledged records", len(recs), truncated)
	}

	// Through a journaled Live the write fails before it is journaled.
	ds := testutil.VectorDataset(20, 2, 10, core.L2{}, 1)
	idx, err := table.NewLAESA(ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	live := epoch.NewLive(ds, idx)
	live.SetJournal(wal)
	if _, err := live.SetAttrsAt(3, long); err == nil {
		t.Fatal("Live.SetAttrsAt accepted an unframable bag")
	}
	if _, _, err := live.AddAttrsAt(core.Vector{1, 1}, long); err == nil {
		t.Fatal("Live.AddAttrsAt accepted an unframable bag")
	}
	if st := wal.Stats(); st.Records != 2 || live.Epoch() != 0 || ds.Count() != 20 {
		t.Fatalf("rejected writes left %d records, epoch %d, %d objects", st.Records, live.Epoch(), ds.Count())
	}
}
