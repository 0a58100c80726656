package persist

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/store"
)

// Snapshot container format, version 2 (normative spec in
// docs/PERSISTENCE.md):
//
//	file    := header dataset-section index-section
//	header  := magic "MXSNAP" | version u16 | flags u8 | kind str |
//	           metric str | epoch u64
//	str     := length u32 | bytes
//	section := length u64 | crc32 u32 (IEEE, over payload) | payload
//
// The dataset payload encodes every id slot (nil slots included, so
// identifiers survive restore); the index payload is family-specific and
// dispatched through the kind registry.
//
// Version 2 extends the dataset slot encoding: the per-slot presence
// byte became a flags byte (bit 0 = object present, bit 1 = attribute
// bag follows the object). Version-1 images only ever wrote 0 or 1, so
// the version-2 decoder reads both formats; version-1 readers cannot
// load attr-carrying images, hence the version bump.
const (
	snapshotMagic      = "MXSNAP"
	snapshotVersion    = 2
	snapshotVersionMin = 1
	snapshotClean      = 1 << 0

	// Dataset slot flags (version 2; version 1 wrote 0 or 1).
	slotObject = 1 << 0
	slotAttrs  = 1 << 1
)

// Snapshotter is implemented by every index structure that can serialize
// itself into a snapshot's index section. The encoded payload must be
// decodable by the loader the index's package registered for its Name().
type Snapshotter interface {
	EncodeSnapshot(w *store.Writer) error
}

// Loader decodes one index payload over the restored dataset, returning
// the index and, for disk-resident structures, the reopened pager (nil
// for in-memory families).
type Loader func(ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error)

var (
	regMu   sync.RWMutex
	loaders = map[string]Loader{}
	metrics = map[string]core.Metric{
		core.L1{}.Name():      core.L1{},
		core.L2{}.Name():      core.L2{},
		core.LInf{}.Name():    core.LInf{},
		core.IntLInf{}.Name(): core.IntLInf{},
		core.Edit{}.Name():    core.Edit{},
	}
)

// Register binds an index kind (its Name() string) to its payload
// loader. Index packages call it from init, so importing a package that
// can build a kind also teaches persist to load it.
func Register(kind string, l Loader) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := loaders[kind]; dup {
		panic(fmt.Sprintf("persist: duplicate loader for kind %q", kind))
	}
	loaders[kind] = l
}

// RegisterMetric teaches the loader a metric by name, for callers using
// metrics beyond the built-in L1/L2/Linf/IntLinf/edit set.
func RegisterMetric(m core.Metric) {
	regMu.Lock()
	defer regMu.Unlock()
	metrics[m.Name()] = m
}

// Kinds lists the registered index kinds, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	ks := make([]string, 0, len(loaders))
	for k := range loaders {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// LoaderFor returns the payload loader registered for an index kind.
func LoaderFor(kind string) (Loader, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	l, ok := loaders[kind]
	return l, ok
}

func metricByName(name string) (core.Metric, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	m, ok := metrics[name]
	return m, ok
}

// Snapshot is a decoded snapshot: the restored dataset and index, the
// kind and epoch they were saved at, and the reopened pager for
// disk-resident kinds (nil otherwise — callers use it to re-enable the
// buffer cache, which restores disabled).
type Snapshot struct {
	Kind    string
	Metric  string
	Epoch   uint64
	Dataset *core.Dataset
	Index   core.Index
	Pager   *store.Pager
}

// Unwrapper is implemented by decorating wrappers (e.g. the public
// DiskIndex) so Encode can reach the underlying Snapshotter.
type Unwrapper interface {
	Unwrap() core.Index
}

// Encode serializes the dataset, the index and the epoch they are
// consistent at into a version-1 snapshot image. The index must
// implement Snapshotter (directly or through an Unwrapper chain) and
// have a registered loader.
func Encode(ds *core.Dataset, idx core.Index, epoch uint64) ([]byte, error) {
	kind := idx.Name()
	snap, ok := idx.(Snapshotter)
	for !ok {
		u, isWrap := idx.(Unwrapper)
		if !isWrap {
			return nil, fmt.Errorf("persist: index %s has no snapshot codec", kind)
		}
		idx = u.Unwrap()
		snap, ok = idx.(Snapshotter)
	}
	if _, ok := LoaderFor(kind); !ok {
		return nil, fmt.Errorf("persist: no loader registered for index %s", kind)
	}

	w := store.NewWriter()
	w.Raw([]byte(snapshotMagic))
	w.U16(snapshotVersion)
	w.U8(snapshotClean)
	w.String(kind)
	w.String(ds.Space().Metric().Name())
	w.U64(epoch)

	dw := store.NewWriter()
	encodeDataset(dw, ds)

	iw := store.NewWriter()
	if err := snap.EncodeSnapshot(iw); err != nil {
		return nil, fmt.Errorf("persist: encode %s: %w", kind, err)
	}

	writeSection(w, dw.Bytes())
	writeSection(w, iw.Bytes())
	return w.Bytes(), nil
}

func writeSection(w *store.Writer, payload []byte) {
	w.U64(uint64(len(payload)))
	w.U32(crc32.ChecksumIEEE(payload))
	w.Raw(payload)
}

// readSection reads one section, refusing a length beyond the bytes left
// before it allocates or slices anything.
func readSection(r *store.Reader) ([]byte, error) {
	n, crc := r.U64(), r.U32()
	if r.Err() == nil && n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("persist: section of %d bytes exceeds %d remaining", n, r.Remaining())
	}
	payload := r.Raw(int(n))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("persist: section checksum mismatch")
	}
	return payload, nil
}

// encodeDataset writes every id slot: u32 slot count, then per slot a
// flags byte followed by the object (store codec) and, when the slot
// carries attributes, its row in the attrs codec. Encoding empty slots
// keeps identifiers stable across restore.
func encodeDataset(w *store.Writer, ds *core.Dataset) {
	objs := ds.Objects()
	w.U32(uint32(len(objs)))
	for id, o := range objs {
		if o == nil {
			w.U8(0)
			continue
		}
		flags := uint8(slotObject)
		if ds.AttrRow(id).AttrLen() > 0 {
			flags |= slotAttrs
		}
		w.U8(flags)
		w.Object(o)
		if flags&slotAttrs != 0 {
			w.RowAttrs(ds, id)
		}
	}
}

// decodeDataset restores the slots, then decodes each attribute span
// straight into its row's columns: the dataset must exist (with its
// objects) before a row can take fields.
func decodeDataset(payload []byte, metric core.Metric) (*core.Dataset, error) {
	r := store.NewReader(payload)
	n := r.Count(1)
	if err := r.Err(); err != nil {
		return nil, err
	}
	objs := make([]core.Object, n)
	type span struct {
		id    int
		attrs []byte
	}
	var spans []span
	var ref core.Object // the first stored object, every other one's kind
	for i := range objs {
		flags := r.U8()
		if r.Err() == nil && (flags&slotObject == 0 && flags != 0 || flags&^uint8(slotObject|slotAttrs) != 0) {
			return nil, fmt.Errorf("persist: dataset slot %d has invalid flags %#x", i, flags)
		}
		if flags&slotObject != 0 {
			objs[i] = r.Object()
			if ref == nil {
				ref = objs[i]
			} else if r.Err() == nil && !core.SameKind(ref, objs[i]) {
				return nil, fmt.Errorf("persist: dataset slot %d holds an object of another kind than the first stored one", i)
			}
		}
		if flags&slotAttrs != 0 {
			spans = append(spans, span{i, r.AttrsSpan()})
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return nil, err
	}
	ds := core.NewDataset(core.NewSpace(metric), objs)
	dec := store.NewAttrDecoder()
	for _, s := range spans {
		if err := dec.DecodeInto(s.attrs, ds, s.id); err != nil {
			return nil, fmt.Errorf("slot %d attrs: %w", s.id, err)
		}
	}
	return ds, nil
}

// Decode parses a snapshot image: header, checksummed sections, dataset,
// and the index payload via the registered loader. Corrupt input of any
// shape returns an error; Decode never panics.
func Decode(data []byte) (*Snapshot, error) {
	r := store.NewReader(data)
	magic := r.Raw(len(snapshotMagic))
	if r.Err() != nil || string(magic) != snapshotMagic {
		return nil, fmt.Errorf("persist: not a snapshot (bad magic)")
	}
	ver := r.U16()
	if r.Err() == nil && (ver < snapshotVersionMin || ver > snapshotVersion) {
		return nil, fmt.Errorf("persist: unsupported snapshot version %d (want %d..%d)", ver, snapshotVersionMin, snapshotVersion)
	}
	flags := r.U8()
	if r.Err() == nil && flags&snapshotClean == 0 {
		return nil, fmt.Errorf("persist: snapshot marked dirty; refusing to load")
	}
	kind := r.String()
	metricName := r.String()
	epoch := r.U64()
	dsPayload, err := readSection(r)
	if err != nil {
		return nil, err
	}
	idxPayload, err := readSection(r)
	if err != nil {
		return nil, err
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return nil, err
	}

	metric, ok := metricByName(metricName)
	if !ok {
		return nil, fmt.Errorf("persist: unknown metric %q (RegisterMetric it before loading)", metricName)
	}
	loader, ok := LoaderFor(kind)
	if !ok {
		return nil, fmt.Errorf("persist: no loader registered for index %s", kind)
	}
	ds, err := decodeDataset(dsPayload, metric)
	if err != nil {
		return nil, fmt.Errorf("persist: dataset section: %w", err)
	}
	ir := store.NewReader(idxPayload)
	idx, pager, err := loader(ds, ir)
	if err != nil {
		return nil, fmt.Errorf("persist: %s payload: %w", kind, err)
	}
	if ir.Err() == nil {
		ir.ExpectEOF()
	}
	if err := ir.Err(); err != nil {
		return nil, fmt.Errorf("persist: %s payload: %w", kind, err)
	}
	return &Snapshot{Kind: kind, Metric: metricName, Epoch: epoch, Dataset: ds, Index: idx, Pager: pager}, nil
}

// SaveFile writes data to path atomically: a temp file in the same
// directory, fsynced, then renamed over the target. A crash mid-save
// leaves either the old snapshot or the new one, never a torn file.
func SaveFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// LoadFile reads and decodes a snapshot file.
func LoadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// SaveLive snapshots a Live index to path: dataset, index and epoch are
// captured in one read section, so the image is a committed prefix of
// the write history even while updates race the save.
func SaveLive(path string, l *epoch.Live) error {
	var data []byte
	err := l.Snapshot(func(ds *core.Dataset, idx core.Index, ep uint64) error {
		var err error
		data, err = Encode(ds, idx, ep)
		return err
	})
	if err != nil {
		return err
	}
	return SaveFile(path, data)
}

// OpenLive restores a Live index from a snapshot file, positioned at the
// epoch the snapshot was taken. Callers typically follow with a WAL
// replay (Replay) and attach the WAL as the journal.
func OpenLive(path string) (*epoch.Live, *Snapshot, error) {
	snap, err := LoadFile(path)
	if err != nil {
		return nil, nil, err
	}
	l := epoch.NewLive(snap.Dataset, snap.Index)
	l.SetEpoch(snap.Epoch)
	return l, snap, nil
}

// Replay applies the WAL records committed after the Live's current
// epoch (those at or before it are already in the snapshot), restoring
// each at its exact epoch. It returns the number applied.
func Replay(l *epoch.Live, recs []Record) (int, error) {
	applied := 0
	for _, rec := range recs {
		if rec.Epoch <= l.Epoch() {
			continue
		}
		if err := l.Apply(rec.Epoch, rec.Write); err != nil {
			return applied, fmt.Errorf("persist: replay of op %d at epoch %d: %w", rec.Op, rec.Epoch, err)
		}
		applied++
	}
	return applied, nil
}
