package epoch_test

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/obs"
	"metricindex/internal/persist"
	"metricindex/internal/plan"
)

// writeStep is one write of a sequence. arg picks the object and bag of
// an add, and the target of every other op among the ids it applies to;
// a set also takes its bag from arg (a nil bag clears).
type writeStep struct {
	op  epoch.Op
	arg byte
}

// writeOps are the ops a fuzz byte selects, in selector order.
var writeOps = []epoch.Op{epoch.OpAdd, epoch.OpRemove, epoch.OpSetAttrs}

// writePathsSequence covers every op: adds with and without a bag, a
// remove whose slot the next add reuses, and a set and a clear of a bag.
var writePathsSequence = []writeStep{
	{epoch.OpAdd, 1}, {epoch.OpRemove, 7}, {epoch.OpAdd, 2}, {epoch.OpSetAttrs, 13}, {epoch.OpSetAttrs, 8},
	{epoch.OpAdd, 4}, {epoch.OpRemove, 40}, {epoch.OpAdd, 3}, {epoch.OpSetAttrs, 9},
}

// decodeWrites reads a sequence two bytes a step: the op selector and
// the argument.
func decodeWrites(data []byte) []writeStep {
	steps := make([]writeStep, 0, len(data)/2)
	for i := 0; i+1 < len(data) && len(steps) < 64; i += 2 {
		steps = append(steps, writeStep{writeOps[int(data[i])%len(writeOps)], data[i+1]})
	}
	return steps
}

func encodeWrites(steps []writeStep) []byte {
	var data []byte
	for _, s := range steps {
		for sel, op := range writeOps {
			if op == s.op {
				data = append(data, byte(sel), s.arg)
			}
		}
	}
	return data
}

var writeKinds = []string{"red", "green", "blue"}

func writeObject(b byte) core.Object {
	return core.Vector{float64(b % 100), float64(b * 7 % 31), float64(b * 13 % 17), 1}
}

func writeBag(b byte) core.Attrs {
	if b%4 == 0 {
		return nil
	}
	bag := core.Attrs{"kind": core.StringValue(writeKinds[b%3]), "n": core.IntValue(int64(b % 5))}
	if b%2 == 1 {
		bag["tags"] = core.TagsValue("hot", writeKinds[b/3%3])
	}
	return bag
}

// pick returns the arg-th (mod len) id of set in increasing order.
func pick(set map[int]bool, arg byte) (int, bool) {
	if len(set) == 0 {
		return 0, false
	}
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids[int(arg)%len(ids)], true
}

// commitWrites commits steps on l through its write sections, skipping
// a step no id can take, and returns the ids the index holds afterwards.
func commitWrites(t *testing.T, l *epoch.Live, steps []writeStep) map[int]bool {
	t.Helper()
	indexed := map[int]bool{}
	l.View(func(ds *core.Dataset, _ core.Index) {
		for _, id := range ds.LiveIDs() {
			indexed[id] = true
		}
	})
	for _, s := range steps {
		var err error
		switch s.op {
		case epoch.OpAdd:
			var id int
			if id, _, err = l.AddAttrsAt(writeObject(s.arg), writeBag(s.arg)); err == nil {
				indexed[id] = true
			}
		case epoch.OpRemove:
			if id, ok := pick(indexed, s.arg); ok {
				_, err = l.RemoveAt(id)
				delete(indexed, id)
			}
		case epoch.OpSetAttrs:
			if id, ok := pick(indexed, s.arg); ok {
				_, err = l.SetAttrsAt(id, writeBag(s.arg/3))
			}
		}
		if err != nil {
			t.Fatalf("op %d arg %d: %v", s.op, s.arg, err)
		}
	}
	return indexed
}

// liveState is what a write sequence leaves behind: every slot's object
// and bag (trailing empty slots trimmed) and the estimator's counts.
type liveState struct {
	objects []core.Object
	attrs   []core.Attrs
	counts  map[string]int
	hist    []int
}

func stateOf(l *epoch.Live) liveState {
	var s liveState
	l.View(func(ds *core.Dataset, _ core.Index) {
		for id := 0; id < ds.Len(); id++ {
			s.objects = append(s.objects, ds.Object(id))
			s.attrs = append(s.attrs, ds.Attrs(id))
		}
	})
	for len(s.objects) > 0 && s.objects[len(s.objects)-1] == nil {
		s.objects, s.attrs = s.objects[:len(s.objects)-1], s.attrs[:len(s.attrs)-1]
	}
	l.PlanStats(func(st *plan.Stats) {
		s.counts = map[string]int{"rows": st.Rows()}
		for _, f := range []string{"kind", "n", "tags"} {
			s.counts[f] = st.FieldRows(f)
			for _, v := range append([]string{"hot"}, writeKinds...) {
				s.counts[f+"="+v] = st.ValueRows(f, v)
			}
		}
		s.hist = st.HistogramCounts("n")
	})
	return s
}

func sameState(t *testing.T, what string, got, want liveState) {
	t.Helper()
	if len(got.objects) != len(want.objects) {
		t.Fatalf("%s: %d slots, want %d", what, len(got.objects), len(want.objects))
	}
	for id := range want.objects {
		if !reflect.DeepEqual(got.objects[id], want.objects[id]) {
			t.Fatalf("%s: slot %d holds %v, want %v", what, id, got.objects[id], want.objects[id])
		}
	}
	for id := range want.attrs {
		if !got.attrs[id].Equal(want.attrs[id]) {
			t.Fatalf("%s: attrs of %d are %v, want %v", what, id, got.attrs[id], want.attrs[id])
		}
	}
	if !reflect.DeepEqual(got.counts, want.counts) || !reflect.DeepEqual(got.hist, want.hist) {
		t.Fatalf("%s: estimator %v %v, want %v %v", what, got.counts, got.hist, want.counts, want.hist)
	}
}

// checkIndexedAnswers compares l's range and kNN answers with a
// brute-force scan of the objects the index should hold; the first
// range query covers them all.
func checkIndexedAnswers(t *testing.T, what string, l *epoch.Live, indexed map[int]bool) {
	t.Helper()
	for qs, r := byte(0), math.Inf(1); qs < 4; qs, r = qs+1, 20 {
		q := writeObject(qs*37 + 5)
		var dists []float64
		var inRange []int
		l.View(func(ds *core.Dataset, _ core.Index) {
			for id := range indexed {
				d := ds.Space().Metric().Distance(q, ds.Object(id))
				dists = append(dists, d)
				if d <= r {
					inRange = append(inRange, id)
				}
			}
		})
		sort.Ints(inRange)
		sort.Float64s(dists)
		got, err := l.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		sort.Ints(got)
		if len(got) != len(inRange) || len(got) > 0 && !reflect.DeepEqual(got, inRange) {
			t.Fatalf("%s: range answer %v, want %v", what, got, inRange)
		}
		nns, err := l.KNNSearch(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(5, len(dists)); len(nns) != want {
			t.Fatalf("%s: kNN returned %d neighbors, want %d", what, len(nns), want)
		}
		for i, nb := range nns {
			if !indexed[nb.ID] || math.Abs(nb.Dist-dists[i]) > 1e-9 {
				t.Fatalf("%s: neighbor %d is %+v, want distance %v", what, i, nb, dists[i])
			}
		}
	}
}

// checkWritePathsAgree commits steps three ways — plainly, while a
// blocked swap builds, and journaled to a WAL then restored from a
// snapshot taken before them — and requires the same objects, bags and
// estimator from all three, and answers equal to a brute-force scan.
func checkWritePathsAgree(t *testing.T, steps []writeStep) {
	build := builders()["LAESA"]
	plain := newLive(t, "LAESA", build, 40)
	indexed := commitWrites(t, plain, steps)
	want := stateOf(plain)
	checkIndexedAnswers(t, "plain", plain, indexed)

	swapped := newLive(t, "LAESA", build, 40)
	building, finish, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		done <- swapped.Swap(func(ds *core.Dataset) (core.Index, error) {
			close(building)
			<-finish
			return build(ds)
		})
	}()
	<-building
	commitWrites(t, swapped, steps)
	close(finish)
	if err := <-done; err != nil {
		t.Fatalf("Swap: %v", err)
	}
	sameState(t, "swap", stateOf(swapped), want)
	checkIndexedAnswers(t, "swap", swapped, indexed)

	dir := t.TempDir()
	snapPath, walPath := filepath.Join(dir, "live.snap"), filepath.Join(dir, "live.wal")
	journaled := newLive(t, "LAESA", build, 40)
	if err := persist.SaveLive(snapPath, journaled); err != nil {
		t.Fatal(err)
	}
	wal, _, _, err := persist.OpenWAL(walPath, persist.SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	journaled.SetJournal(wal)
	commitWrites(t, journaled, steps)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	restored, _, err := persist.OpenLive(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	wal, recs, _, err := persist.OpenWAL(walPath, persist.SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if _, err := persist.Replay(restored, recs); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	sameState(t, "WAL", stateOf(restored), want)
	checkIndexedAnswers(t, "WAL", restored, indexed)
	if restored.Epoch() != plain.Epoch() {
		t.Fatalf("WAL: restored at epoch %d, committed at %d", restored.Epoch(), plain.Epoch())
	}
}

// TestWritePathsAgree: a write committed plainly, replayed at a swap's
// cutover and redone by WAL recovery leaves the same state.
func TestWritePathsAgree(t *testing.T) {
	checkWritePathsAgree(t, writePathsSequence)
}

// FuzzWritePaths decodes bytes to a write sequence and requires the
// three write paths to agree on it.
func FuzzWritePaths(f *testing.F) {
	f.Add(encodeWrites(writePathsSequence))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWritePathsAgree(t, decodeWrites(data))
	})
}

// TestWriteWaitObservedByEveryWrite: with Obs attached, every write
// section — on every op — observes mx_epoch_write_wait_seconds once.
func TestWriteWaitObservedByEveryWrite(t *testing.T) {
	l := newLive(t, "LAESA", builders()["LAESA"], 40)
	reg := obs.NewRegistry()
	m := &epoch.Obs{
		Swaps:       reg.Counter("mx_epoch_swaps_total", ""),
		SwapSeconds: reg.Histogram("mx_epoch_swap_seconds", "", obs.DefLatencyBuckets),
		WriteWait:   reg.Histogram("mx_epoch_write_wait_seconds", "", obs.DefLatencyBuckets),
	}
	l.SetObs(m)
	commitWrites(t, l, writePathsSequence)
	if got, want := m.WriteWait.Count(), int64(l.Epoch()); got != want {
		t.Fatalf("write wait observed %d times over %d committed writes", got, want)
	}
}

var errJournalDown = errors.New("journal down")

type failingJournal struct{}

func (failingJournal) Append(epoch.Op, uint64, int, core.Object, core.AttrSource) error {
	return errJournalDown
}

// TestFailedJournalRollsBack: a write whose journal append fails
// returns the error and leaves the dataset, the bags, the estimator,
// the answers and the epoch as they were, on every op.
func TestFailedJournalRollsBack(t *testing.T) {
	l := newLive(t, "LAESA", builders()["LAESA"], 40)
	// A bag on the target.
	indexed := commitWrites(t, l, []writeStep{{epoch.OpSetAttrs, 3}})
	before, ep := stateOf(l), l.Epoch()
	l.SetJournal(failingJournal{})
	writes := []struct {
		name  string
		write func() error
	}{
		{"add", func() error { _, _, err := l.AddAttrsAt(writeObject(9), writeBag(9)); return err }},
		{"remove", func() error { _, err := l.RemoveAt(3); return err }},
		{"set-attrs", func() error { _, err := l.SetAttrsAt(3, writeBag(2)); return err }},
	}
	for _, w := range writes {
		if err := w.write(); !errors.Is(err, errJournalDown) {
			t.Fatalf("%s: returned %v, want the journal's error", w.name, err)
		}
		sameState(t, w.name, stateOf(l), before)
		checkIndexedAnswers(t, w.name, l, indexed)
		if l.Epoch() != ep {
			t.Fatalf("%s: epoch moved from %d to %d", w.name, ep, l.Epoch())
		}
	}
}
