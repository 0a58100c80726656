package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/obs"
	"metricindex/internal/store"
)

// WAL file format, version 1 (normative spec in docs/PERSISTENCE.md):
//
//	file    := magic "MXWAL1" | version u16 | record*
//	record  := length u32 | crc32 u32 (IEEE, over payload) | payload
//	payload := op u8 | epoch u64 | id u64 | object? (store codec,
//	           present iff op is OpAdd or OpInsert) | attrs?
//	           (store attrs codec, present iff bytes remain)
//
// The trailing attrs bag is a compatible extension: records written
// before attributes existed simply end after the object, and decode
// with a nil bag. An attr-carrying op (OpAdd, OpInsert, OpSetAttrs)
// whose bag is empty omits the bag, so such records stay byte-identical
// to the pre-attrs encoding.
//
// Appends are sequential; a crash can only tear the tail. On open the
// file is scanned front to back and the first record that is short,
// oversized, or checksum-broken ends the valid prefix — everything
// before it is replayed, everything from it on is truncated away.
const (
	walMagic   = "MXWAL1"
	walVersion = 1
	walHeader  = len(walMagic) + 2
	// maxWALRecord bounds one record's payload; larger lengths are torn
	// tails or corruption by construction.
	maxWALRecord = 1 << 28
)

// Record is one decoded WAL entry: a committed Live write and the epoch
// it committed at. A decoded bag is a core.Attrs; Attrs is nil when the
// record carries none.
type Record struct {
	Epoch uint64
	epoch.Write
}

// SyncMode selects the WAL's fsync policy — the durability/latency
// trade-off. See docs/PERSISTENCE.md.
type SyncMode uint8

const (
	// SyncAlways fsyncs after every append: no committed write is ever
	// lost, at one disk flush per update.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs in the background every walSyncInterval: a
	// crash loses at most the last interval's commits.
	SyncInterval
	// SyncOff never fsyncs explicitly: the OS flushes on its schedule.
	// A process crash loses nothing (the page cache survives); an OS
	// crash may lose recent commits.
	SyncOff
)

const walSyncInterval = 200 * time.Millisecond

// String names the mode as the -fsync flag spells it.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncMode(%d)", uint8(m))
	}
}

// ParseSyncMode parses "always", "interval" or "off".
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("persist: unknown fsync mode %q (want always, interval or off)", s)
	}
}

// WAL is the write-ahead log of a Live index. It implements
// epoch.Journal, so attaching it via Live.SetJournal makes every
// committed write durable before the commit is acknowledged (modulo the
// sync mode). WAL is safe for concurrent use.
type WAL struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	mode    SyncMode
	size    int64 // valid bytes (header + records)
	records int64
	dirty   bool
	stop    chan struct{}
	done    chan struct{}

	metrics atomic.Pointer[WALObs]
}

// WALObs carries the metric handles the WAL updates on its hot path.
// All fields must be non-nil. Attach with SetObs; a WAL without one
// records nothing.
type WALObs struct {
	Appends      *obs.Counter   // records appended
	AppendBytes  *obs.Counter   // framed bytes appended
	FsyncSeconds *obs.Histogram // duration of every explicit fsync
}

// SetObs attaches metric handles. Safe to call at any time, including
// while appends are in flight.
func (w *WAL) SetObs(m *WALObs) {
	w.metrics.Store(m)
}

// syncTimed runs one fsync, recording its duration when instrumented.
func (w *WAL) syncTimed() error {
	m := w.metrics.Load()
	if m == nil {
		return w.f.Sync()
	}
	start := time.Now()
	err := w.f.Sync()
	m.FsyncSeconds.Observe(time.Since(start).Seconds())
	return err
}

// WALStats snapshots the log's counters for /v1/stats.
type WALStats struct {
	Records int64
	Bytes   int64
	Mode    SyncMode
}

// OpenWAL opens (creating if absent) the log at path, validates it, and
// returns the valid records for replay. A torn tail — a crash mid-append
// — is detected by record framing and checksum, reported via truncated,
// and cut off so the file ends at the last valid record.
func OpenWAL(path string, mode SyncMode) (w *WAL, recs []Record, truncated bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, false, err
	}
	w = &WAL{path: path, f: f, mode: mode}
	data, err := os.ReadFile(path)
	if err != nil {
		_ = f.Close()
		return nil, nil, false, err
	}
	if len(data) == 0 {
		hdr := encodeWALHeader()
		if _, err := f.Write(hdr); err != nil {
			_ = f.Close()
			return nil, nil, false, err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, false, err
		}
		w.size = int64(len(hdr))
	} else {
		if err := decodeWALHeader(data); err != nil {
			_ = f.Close()
			return nil, nil, false, fmt.Errorf("persist: %s: %w", path, err)
		}
		var end int64
		recs, end = scanWAL(data)
		w.records = int64(len(recs))
		w.size = end
		if end < int64(len(data)) {
			truncated = true
			if err := f.Truncate(end); err != nil {
				_ = f.Close()
				return nil, nil, false, err
			}
			if err := f.Sync(); err != nil {
				_ = f.Close()
				return nil, nil, false, err
			}
		}
	}
	if _, err := f.Seek(w.size, 0); err != nil {
		_ = f.Close()
		return nil, nil, false, err
	}
	if mode == SyncInterval {
		w.startSyncLoop()
	}
	return w, recs, truncated, nil
}

// encodeWALHeader returns the log's header: its magic and version.
func encodeWALHeader() []byte {
	w := store.NewWriter()
	w.Raw([]byte(walMagic))
	w.U16(walVersion)
	return w.Bytes()
}

// decodeWALHeader checks the header a log's bytes begin with.
func decodeWALHeader(data []byte) error {
	r := store.NewReader(data)
	magic, ver := r.Raw(len(walMagic)), r.U16()
	if r.Err() != nil || string(magic) != walMagic {
		return fmt.Errorf("not a WAL (bad magic)")
	}
	if ver != walVersion {
		return fmt.Errorf("unsupported WAL version %d (want %d)", ver, walVersion)
	}
	return nil
}

// scanWAL walks the records after the header, returning the decoded
// valid prefix and the byte offset it ends at.
func scanWAL(data []byte) ([]Record, int64) {
	var recs []Record
	off := walHeader
	for {
		if len(data)-off < 8 {
			return recs, int64(off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n < 17 || n > maxWALRecord || n > len(data)-off-8 {
			return recs, int64(off)
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, int64(off)
		}
		rec, ok := decodeWALRecord(payload)
		if !ok {
			return recs, int64(off)
		}
		recs = append(recs, rec)
		off += 8 + n
	}
}

func decodeWALRecord(payload []byte) (Record, bool) {
	r := store.NewReader(payload)
	var rec Record
	rec.Op = epoch.Op(r.U8())
	rec.Epoch = r.U64()
	rec.ID = int(r.U64())
	switch rec.Op {
	case epoch.OpAdd, epoch.OpInsert:
		rec.Obj = r.Object()
	case epoch.OpRemove, epoch.OpDelete, epoch.OpSwap, epoch.OpSetAttrs:
	default:
		return Record{}, false
	}
	if r.Remaining() > 0 {
		rec.Attrs = r.Attrs()
	}
	r.ExpectEOF()
	return rec, r.Err() == nil
}

func encodeWALRecord(op epoch.Op, ep uint64, id int, obj core.Object, attrs core.AttrSource) []byte {
	p := store.NewWriter()
	p.U8(uint8(op))
	p.U64(ep)
	p.U64(uint64(id))
	if op == epoch.OpAdd || op == epoch.OpInsert {
		p.Object(obj)
	}
	if attrs != nil && attrs.AttrLen() > 0 {
		p.Attrs(attrs)
	}
	payload := p.Bytes()
	f := store.NewWriter()
	f.U32(uint32(len(payload)))
	f.U32(crc32.ChecksumIEEE(payload))
	f.Raw(payload)
	return f.Bytes()
}

// Append writes one committed update; it is the epoch.Journal hook. With
// SyncAlways the record is fsynced before returning, so the write
// section that called us cannot acknowledge a commit the disk has not
// seen. A bag core.ValidateAttrs rejects is refused before anything is
// written: its lengths do not fit the record's u16 frames.
func (w *WAL) Append(op epoch.Op, ep uint64, id int, obj core.Object, attrs core.AttrSource) error {
	if err := core.ValidateAttrs(attrs); err != nil {
		return fmt.Errorf("persist: WAL record: %w", err)
	}
	frame := encodeWALRecord(op, ep, id, obj, attrs)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("persist: WAL is closed")
	}
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	w.size += int64(len(frame))
	w.records++
	if m := w.metrics.Load(); m != nil {
		m.Appends.Inc()
		m.AppendBytes.Add(int64(len(frame)))
	}
	if w.mode == SyncAlways {
		return w.syncTimed()
	}
	w.dirty = true
	return nil
}

// TruncateThrough drops every record with epoch <= ep — called after a
// snapshot at ep lands, which makes those records redundant. The
// surviving tail is rewritten to a temp file and renamed in, so a crash
// mid-truncation leaves a valid log either way.
func (w *WAL) TruncateThrough(ep uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("persist: WAL is closed")
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		return err
	}
	recs, _ := scanWAL(data)
	out := encodeWALHeader()
	kept := int64(0)
	for _, rec := range recs {
		if rec.Epoch <= ep {
			continue
		}
		out = append(out, encodeWALRecord(rec.Op, rec.Epoch, rec.ID, rec.Obj, rec.Attrs)...)
		kept++
	}
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, ".wal-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(out); err != nil {
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
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		return err
	}
	f, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, 2); err != nil {
		_ = f.Close()
		return err
	}
	_ = w.f.Close()
	w.f = f
	w.size = int64(len(out))
	w.records = kept
	return nil
}

// Stats snapshots the log's size and record counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{Records: w.records, Bytes: w.size, Mode: w.mode}
}

// Sync forces an fsync regardless of mode.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	w.dirty = false
	return w.syncTimed()
}

// Close stops the background sync (if any), fsyncs, and closes the file.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.stop != nil {
		close(w.stop)
		w.stop = nil
	}
	done := w.done
	w.mu.Unlock()
	if done != nil {
		<-done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

func (w *WAL) startSyncLoop() {
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	stop, done := w.stop, w.done
	go func() {
		defer close(done)
		t := time.NewTicker(walSyncInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				w.mu.Lock()
				if w.dirty && w.f != nil {
					w.dirty = false
					_ = w.syncTimed()
				}
				w.mu.Unlock()
			}
		}
	}()
}

// interface check: the WAL is Live's journal.
var _ epoch.Journal = (*WAL)(nil)
