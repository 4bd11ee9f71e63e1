// Copy-on-write row snapshots: the lock-free read side of a live table.
//
// A Snapshot is an immutable (arena, epoch, rowcount) view of a table's
// rows published via atomic pointer swap. The writer keeps a private
// append-only arena mirroring the heap in scan order; every Insert appends
// the row and publishes a frozen O(1) header over the arena's current
// prefix (value.RecordArena.Freeze — capped slices sharing the backing
// buffers), so publication costs one encode and one pointer store, never a
// copy of the table. Deletes reorder nothing in the heap but do shrink it,
// so they invalidate: the mirror is dropped and the next snapshot request
// rebuilds it with one scan under the write lock — the same amortization
// the old RowDir used, except the rebuilt artifact then serves every
// reader without any lock at all.
//
// The invariant readers rely on: a non-nil published snapshot always
// describes the table's current committed state (every mutation either
// publishes a successor or nils the pointer before releasing the write
// lock). A loaded *Snapshot stays internally consistent forever — it is
// immutable — it just stops being current when its epoch falls behind the
// table's. Epoch-keyed consumers get exactly the staleness contract they
// already have for cache entries.
package db

import (
	"fmt"
	"sync/atomic"

	"samplecf/internal/heap"
	"samplecf/internal/obs"
	"samplecf/internal/sampling"
	"samplecf/internal/value"
)

// ErrSnapshotsDisabled is returned by snapshot accessors when the database
// was built with WithSnapshots(false); callers fall back to the locked
// access paths.
var ErrSnapshotsDisabled = fmt.Errorf("db: snapshots disabled")

// Process-wide snapshot tallies on the default obs registry (the
// sampling/metrics.go idiom): db tables are created ad hoc, so per-table
// registries would fragment the ledger. cfserve's /metrics concatenates
// the default registry, so these surface without extra plumbing.
var (
	metricSnapshotsPublished = obs.Default().Counter(
		"samplecf_db_snapshots_published_total",
		"Copy-on-write table snapshots published (one per mutation on the append-only path).")
	metricSnapshotRebuilds = obs.Default().Counter(
		"samplecf_db_snapshot_rebuilds_total",
		"Snapshot mirror rebuild scans (the O(n) cost a delete defers to the next snapshot reader).")
)

// Snapshot is one published point-in-time view: the full-schema rows in
// heap scan order, their storage keys, and the epoch the view was
// published at. It is immutable and safe to retain and read from any
// number of goroutines; it implements sampling.StableRowSource and
// sampling.RecordSource.
type Snapshot struct {
	ar    *value.RecordArena // frozen: rows in heap scan order
	rids  []uint64           // parallel ridKey per row (frozen prefix)
	epoch uint64
}

// NumRows implements sampling.RowSource.
func (s *Snapshot) NumRows() int64 { return int64(s.ar.Len()) }

// Row implements sampling.RowSource: decode row i from the arena. The
// payloads alias the snapshot's buffers, which never change — safe to
// retain, same trimmed representation heap decoding produces.
func (s *Snapshot) Row(i int64) (value.Row, error) {
	if i < 0 || i >= int64(s.ar.Len()) {
		return nil, fmt.Errorf("db: snapshot row %d out of range [0,%d)", i, s.ar.Len())
	}
	return s.ar.Row(int(i))
}

// Records implements sampling.RecordSource: the record half of the frozen
// arena, so draws and full scans read the snapshot as bytes.
func (s *Snapshot) Records() []byte { return s.ar.Recs() }

// StableRows marks the snapshot scan-stable (sampling.StableRowSource).
func (s *Snapshot) StableRows() {}

// Epoch returns the table epoch the snapshot was published at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Arena exposes the frozen row arena (records + memcomparable keys under
// the table schema) for consumers that gather by byte range. Read-only.
func (s *Snapshot) Arena() *value.RecordArena { return s.ar }

// Scan iterates the snapshot's rows in order — the lock-free counterpart
// of Table.Scan, same callback shape.
func (s *Snapshot) Scan(fn func(i int64, row value.Row) error) error {
	for i := 0; i < s.ar.Len(); i++ {
		row, err := s.ar.Row(i)
		if err != nil {
			return err
		}
		if err := fn(int64(i), row); err != nil {
			return err
		}
	}
	return nil
}

// snapshotState is the writer-side snapshot machinery embedded in Table.
// live/liveRIDs are guarded by the table's write lock; snap is the atomic
// publication point readers load without any lock.
type snapshotState struct {
	enabled bool
	// live is the writer-private mirror: full-schema rows appended in heap
	// order. nil means "mirror dropped" (after a delete or a maintenance
	// failure) — the next Snapshot() call rebuilds it. liveRIDs is the
	// parallel storage-key slice.
	live     *value.RecordArena
	liveRIDs []uint64
	snap     atomic.Pointer[Snapshot]
}

// invalidateSnapshotLocked drops the mirror and the published snapshot.
// Caller holds the table write lock.
func (t *Table) invalidateSnapshotLocked() {
	t.snapshot.live = nil
	t.snapshot.liveRIDs = nil
	t.snapshot.snap.Store(nil)
}

// publishSnapshotLocked publishes a frozen view of the current mirror at
// epoch. Caller holds the table write lock and has already brought the
// mirror up to date; a dropped mirror publishes nothing (the snapshot
// pointer must already be nil in that case).
func (t *Table) publishSnapshotLocked(epoch uint64) {
	if !t.snapshot.enabled || t.snapshot.live == nil {
		return
	}
	t.snapshot.snap.Store(&Snapshot{
		ar:    t.snapshot.live.Freeze(),
		rids:  t.snapshot.liveRIDs[:len(t.snapshot.liveRIDs):len(t.snapshot.liveRIDs)],
		epoch: epoch,
	})
	metricSnapshotsPublished.Add(1)
}

// rebuildSnapshotLocked refills the mirror with one heap scan and
// publishes at the current epoch. Caller holds the table write lock.
func (t *Table) rebuildSnapshotLocked() error {
	metricSnapshotRebuilds.Add(1)
	n := int(t.file.NumRows())
	live := value.NewRecordArena(t.schema, n)
	rids := make([]uint64, 0, n)
	err := t.file.Scan(func(rid heap.RID, row value.Row) error {
		rids = append(rids, ridKey(rid))
		return live.Append(row)
	})
	if err != nil {
		return err
	}
	t.snapshot.live = live
	t.snapshot.liveRIDs = rids
	t.publishSnapshotLocked(t.Epoch())
	return nil
}

// Snapshot returns the table's current published snapshot, rebuilding the
// mirror first when a delete invalidated it. The fast path is one atomic
// load. Errors: ErrSnapshotsDisabled when the database was built with
// WithSnapshots(false), ErrTableDropped after a drop.
func (t *Table) Snapshot() (*Snapshot, error) {
	if !t.snapshot.enabled {
		return nil, ErrSnapshotsDisabled
	}
	if s := t.snapshot.snap.Load(); s != nil {
		return s, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return nil, ErrTableDropped
	}
	if s := t.snapshot.snap.Load(); s != nil {
		return s, nil
	}
	if err := t.rebuildSnapshotLocked(); err != nil {
		return nil, err
	}
	return t.snapshot.snap.Load(), nil
}

// SnapshotRows implements catalog.SnapshotProvider: the pinned scan-stable
// row view and its publication epoch.
func (t *Table) SnapshotRows() (sampling.StableRowSource, uint64, error) {
	s, err := t.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	return s, s.epoch, nil
}
