// Package epoch synchronizes index updates with in-flight searches, and
// makes the index itself a hot-swappable, journalable artifact: Live
// wraps any core.Index (tables, trees, disk structures, the sharded
// scatter-gather front) behind reader/writer epochs so writes
// interleave safely with concurrent queries, and Swap replaces the
// structure wholesale — rebuilt in the background, cut over atomically —
// without dropping or corrupting a single answer.
//
// The library's indexes answer read-only queries against immutable
// structure state (which is what lets internal/exec run whole batches
// concurrently), but none of them synchronize updates with searches; the
// historical contract was "finish the batch, then update". Live removes
// that caveat. Searches run in shared read sections; writes —
// AddAttrsAt, RemoveAt and SetAttrsAt, the only ones — run in
// exclusive write sections; every committed write advances the
// epoch, a monotone counter that names the dataset version a search
// observed. The answer cache keys off exactly
// that counter (SetCache attaches one from internal/cache): answers are
// memoized under the epoch they were observed at, so every committed
// write invalidates the whole working set with no flush path at all.
//
// There is one query path: Live.Search takes a plan.Query (kind,
// object, radius or k, optional filter, optional trace) and returns a
// plan.Answer (ids or neighbors, the epoch read in the same section,
// the executed plan, whether the cache served it). It is the only code
// that probes the cache, enters the read section, plans a filter and
// records spans; RangeSearch/KNNSearch, RangeSearchAt/KNNSearchAt and
// RangeSearchFiltered/KNNSearchFiltered are adapters that pick fields
// of its Answer (search.go).
//
// There is one write path too (write.go). Every write is a Write value
// (op, id, object, bag) committed by one write section, commit: it
// stages the change on the index (an add also stores the object), then
// journals it — a failed append unstages it, so the write never
// happened — then finishes it on the dataset and the planner's
// estimator, logs it for a running swap and bumps the epoch. The
// committed Write is also what is redone later, by one function, redo:
// Apply redoes a WAL record at recovery, and a swap's cutover redoes
// its log onto the replacement, skipping exactly what the snapshot's
// dataset already reflects. Every write changes dataset and index
// together, so all three paths leave the same state.
//
// Swap is the graceful-rebuild path a long-lived server needs: the
// current dataset is snapshotted in one write section, the replacement
// index is built over the snapshot with no locks held (searches and
// updates proceed on the live structure the whole time), updates that
// arrived during the build are recorded in an operation log, and one
// final write section replays the log onto the replacement and flips it
// in. Searches before the flip see the old index with every update
// applied; searches after see the new index with every update applied;
// there is no window in which either misses a committed write.
//
// Durability hooks onto the same write sections: SetJournal attaches a
// Journal (internal/persist provides the write-ahead log), every
// committed write is appended to it with the epoch it committed at
// before the commit is acknowledged, and on recovery Apply replays
// journal records onto a restored structure at their exact epochs. The
// on-disk formats are specified in docs/PERSISTENCE.md.
package epoch
