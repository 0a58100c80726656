package metricindex

import (
	"metricindex/internal/epoch"
	"metricindex/internal/persist"
)

// This file is the public durability surface: versioned snapshots of any
// snapshot-capable index and a write-ahead log for Live fronts. The
// on-disk formats are specified byte-by-byte in docs/PERSISTENCE.md;
// every image starts with a magic string, a format version and
// checksummed sections, and loaders reject corrupt or torn input with an
// error, never a panic.

// WAL is the write-ahead log of a Live index: attach it with
// Live.SetJournal and every committed write or swap is
// appended (with its commit epoch) before the write is acknowledged,
// subject to the SyncMode. See OpenWAL.
type WAL = persist.WAL

// WALRecord is one decoded log entry, as returned by OpenWAL for replay.
type WALRecord = persist.Record

// WALStats snapshots a log's counters.
type WALStats = persist.WALStats

// SyncMode selects the WAL fsync policy: SyncAlways (fsync per append),
// SyncInterval (background fsync every 200ms), SyncOff (OS-paced).
type SyncMode = persist.SyncMode

// The three fsync policies, as the mserve -fsync flag spells them.
const (
	SyncAlways   = persist.SyncAlways
	SyncInterval = persist.SyncInterval
	SyncOff      = persist.SyncOff
)

// ParseSyncMode parses "always", "interval" or "off".
func ParseSyncMode(s string) (SyncMode, error) { return persist.ParseSyncMode(s) }

// Restored is a decoded snapshot: the dataset and index it held, the
// index kind and metric name, and the epoch the image captured.
type Restored struct {
	Kind    string
	Metric  string
	Epoch   uint64
	Dataset *Dataset
	Index   Index
}

func toRestored(s *persist.Snapshot) *Restored {
	idx := s.Index
	if s.Pager != nil {
		// Re-wrap disk-resident kinds so cache control keeps working.
		idx = &DiskIndex{Index: s.Index, pager: s.Pager}
	}
	return &Restored{Kind: s.Kind, Metric: s.Metric, Epoch: s.Epoch,
		Dataset: s.Dataset, Index: idx}
}

// Save writes a snapshot of the index and the dataset it was built over,
// atomically (temp file + rename). epoch tags the image; pass 0 for
// standalone indexes, or the Live epoch when saving a consistent cut of
// an updatable front (SaveLive does this for you).
func Save(path string, ds *Dataset, idx Index, epoch uint64) error {
	data, err := persist.Encode(ds, idx, epoch)
	if err != nil {
		return err
	}
	return persist.SaveFile(path, data)
}

// Open loads a snapshot file: the dataset is restored first (object
// identifiers preserved, deleted slots included), then the index payload
// is decoded over it by the loader registered for its kind — no rebuild,
// no distance computations. Corrupt input fails with an error; datasets
// using a custom metric need persist registration via the metric's name
// (all built-in metrics are known).
func Open(path string) (*Restored, error) {
	snap, err := persist.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return toRestored(snap), nil
}

// SaveLive snapshots a Live front: dataset, index and epoch are captured
// inside one read section, so the image is a committed prefix of the
// write history even while updates race the save.
func SaveLive(path string, l *Live) error { return persist.SaveLive(path, l) }

// OpenLive restores a Live front from a snapshot, positioned at the
// epoch the image captured. Follow with OpenWAL + ReplayWAL to roll
// forward writes committed after the snapshot, then attach the WAL with
// SetJournal so new writes keep being logged:
//
//	live, _, err := metricindex.OpenLive("snapshot.mxs")
//	wal, recs, torn, err := metricindex.OpenWAL("wal.mxl", metricindex.SyncInterval)
//	n, err := metricindex.ReplayWAL(live, recs)
//	live.SetJournal(wal)
func OpenLive(path string) (*Live, *Restored, error) {
	l, snap, err := persist.OpenLive(path)
	if err != nil {
		return nil, nil, err
	}
	return l, toRestored(snap), nil
}

// OpenWAL opens (creating if absent) a write-ahead log and returns the
// valid records for replay. A torn tail — a crash mid-append — is
// detected by framing and checksum, reported via truncated, and cut off
// so the file ends at the last valid record.
func OpenWAL(path string, mode SyncMode) (w *WAL, recs []WALRecord, truncated bool, err error) {
	return persist.OpenWAL(path, mode)
}

// ReplayWAL applies the records committed after the Live's current epoch,
// restoring each write at its exact commit epoch. Records at or before
// the current epoch (already inside the snapshot) are skipped. Returns
// the number applied.
func ReplayWAL(l *Live, recs []WALRecord) (int, error) { return persist.Replay(l, recs) }

// SnapshotKinds lists the index kinds with snapshot support, sorted.
func SnapshotKinds() []string { return persist.Kinds() }

// RegisterSnapshotMetric teaches snapshot loading a custom metric by its
// Name(); built-in metrics (L1, L2, Linf, IntLinf, edit) are pre-registered.
func RegisterSnapshotMetric(m Metric) { persist.RegisterMetric(m) }

// Journal receives every committed Live write (Live.SetJournal); WAL is
// the file-backed implementation.
type Journal = epoch.Journal

// JournalOp tags a journaled write. The values are part of the on-disk
// WAL format (docs/PERSISTENCE.md) and must not be renumbered.
type JournalOp = epoch.Op

// The journaled operations.
const (
	OpAdd    = epoch.OpAdd
	OpRemove = epoch.OpRemove
	OpSwap   = epoch.OpSwap
)
