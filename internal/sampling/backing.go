package sampling

import (
	"fmt"
	"sync"

	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// Backing is an incrementally maintained uniform sample — the "backing
// sample" of Gibbons, Matias & Poosala — for tables under insert/delete
// churn. It keeps hot tables from paying a fresh O(r) draw (plus, for
// heap-backed tables, an O(n) row-directory rebuild) on every estimation
// batch:
//
//   - inserts run Vitter's Algorithm R over the table's insert stream:
//     the first `target` rows all enter; afterwards row t enters with
//     probability target/t, evicting a uniformly chosen slot. Holes left
//     by deletes act as "ghost" eviction targets, so acceptance
//     probability stays target/t even while the reservoir is shrunken —
//     every live row remains equally likely to be sampled;
//   - deletes are exact, not approximate: every sampled row carries the
//     caller's storage key (a RID for heap tables), so deleting a row
//     removes precisely that row from the reservoir if present. The sample
//     stays uniform over the live rows; only its size shrinks;
//   - shrinkage is repaired by policy, not per-operation: when deletes
//     have eroded the reservoir below half its target (while the table
//     could still fill it), Stale reports true and the owner rebuilds
//     with a fresh scan (Reset + re-Insert).
//
// Storage is columnar: reservoir rows live in a value.RecordArena (one
// fixed-width slot per row, records and memcomparable keys pre-encoded),
// so serving an estimation sample is a byte-range gather with no per-row
// decoding or cloning — the arena IS the estimator's input format. Row
// payloads are copied into the arena at Insert, so callers keep ownership
// of what they pass in.
//
// All methods are safe for concurrent use.
type Backing struct {
	mu     sync.Mutex
	target int
	g      *rng.RNG

	ar   *value.RecordArena
	keys []uint64       // storage key per arena slot
	pos  map[uint64]int // storage key → arena slot
	// snap is the frozen clone SnapshotArena shares until the reservoir
	// next changes; nil when none is current.
	snap *value.RecordArena
	// inserted counts rows offered since the last Reset: Algorithm R's
	// stream position t.
	inserted int64
	// deleted counts delete notifications since the last Reset; dropped
	// counts the subset that actually hit the reservoir.
	deleted, dropped int64
}

// NewBacking creates a maintained sample of rows under schema targeting
// `target` rows; draws derive from seed.
func NewBacking(schema *value.Schema, target int, seed uint64) (*Backing, error) {
	if schema == nil {
		return nil, fmt.Errorf("sampling: backing sample requires a schema")
	}
	if target <= 0 {
		return nil, fmt.Errorf("sampling: backing sample target %d must be positive", target)
	}
	return &Backing{
		target: target,
		g:      rng.New(seed),
		ar:     value.NewRecordArena(schema, target),
		keys:   make([]uint64, 0, target),
		pos:    make(map[uint64]int, target),
	}, nil
}

// Target returns the configured reservoir size.
func (b *Backing) Target() int { return b.target }

// Insert offers one newly inserted row (Algorithm R step). key is the
// row's storage identity (e.g. its RID) used for exact delete tolerance;
// offering a key that is already resident replaces that row in place.
// The row is copied into the reservoir's arena; the caller keeps ownership.
func (b *Backing) Insert(key uint64, row value.Row) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i, ok := b.pos[key]; ok {
		// Storage reused the key (e.g. a heap slot refilled after a
		// delete that was never reported); replace in place.
		b.snap = nil
		return b.ar.SetRow(i, row)
	}
	b.inserted++
	if b.inserted <= int64(b.target) {
		return b.appendLocked(key, row)
	}
	// Algorithm R acceptance: j uniform over the stream so far; accept iff
	// j falls in the reservoir's index range. Conditioned on acceptance, j
	// is uniform over [0, target) and doubles as the eviction slot. Slots
	// beyond the current (possibly delete-shrunken) occupancy are ghosts:
	// accepting into one grows the reservoir back toward target without
	// evicting, keeping per-row membership probability at target/t.
	j := b.g.Int63n(b.inserted)
	if j >= int64(b.target) {
		return nil
	}
	if int(j) < b.ar.Len() {
		b.snap = nil
		if err := b.ar.SetRow(int(j), row); err != nil {
			return err
		}
		delete(b.pos, b.keys[j])
		b.keys[j] = key
		b.pos[key] = int(j)
		return nil
	}
	return b.appendLocked(key, row)
}

// appendLocked grows the reservoir by one slot. Caller holds the mutex.
func (b *Backing) appendLocked(key uint64, row value.Row) error {
	b.snap = nil
	if err := b.ar.Append(row); err != nil {
		return err
	}
	b.pos[key] = len(b.keys)
	b.keys = append(b.keys, key)
	return nil
}

// Delete notes the deletion of the row with the given storage key,
// removing it from the reservoir if it was sampled.
func (b *Backing) Delete(key uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.deleted++
	i, ok := b.pos[key]
	if !ok {
		return
	}
	b.dropped++
	b.snap = nil
	last := len(b.keys) - 1
	if i != last {
		b.ar.MoveRow(i, last)
		b.keys[i] = b.keys[last]
		b.pos[b.keys[i]] = i
	}
	b.ar.Truncate(last)
	b.keys = b.keys[:last]
	delete(b.pos, key)
}

// Size returns the current reservoir occupancy.
func (b *Backing) Size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ar.Len()
}

// SnapshotArena returns a point-in-time copy of the reservoir's arena.
// The copy (two contiguous buffer memcopies) is made once per reservoir
// change and shared: every call until the next accepted insert, in-place
// replace, delete of a sampled row or Reset returns the same arena, so
// rejected inserts and repeated reads copy nothing. The shared arena is
// read-only — callers must never mutate it — and later reservoir churn
// never mutates it either.
func (b *Backing) SnapshotArena() *value.RecordArena {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.snap == nil {
		// Frozen: capacity clamped to length, so even an accidental
		// append through the shared arena copies instead of writing
		// into bytes another reader holds.
		b.snap = b.ar.Clone().Freeze()
	}
	return b.snap
}

// Stale reports whether the reservoir needs a rebuild, given the table's
// current live row count: deletes have eroded it below half target even
// though the table still has enough rows to fill that much. A fresh or
// insert-only reservoir is never stale.
func (b *Backing) Stale(liveRows int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	floor := int64(b.target / 2)
	if liveRows < floor {
		floor = liveRows
	}
	return int64(b.ar.Len()) < floor
}

// BackingStats reports the maintenance counters since the last Reset.
type BackingStats struct {
	// Size and Target describe reservoir occupancy.
	Size, Target int
	// Inserted counts rows offered; Deleted counts delete notifications;
	// Dropped counts deletes that removed a sampled row.
	Inserted, Deleted, Dropped int64
}

// Stats snapshots the counters.
func (b *Backing) Stats() BackingStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackingStats{
		Size:     b.ar.Len(),
		Target:   b.target,
		Inserted: b.inserted,
		Deleted:  b.deleted,
		Dropped:  b.dropped,
	}
}

// Reset empties the reservoir and counters ahead of a rebuild scan; seed
// re-derives the draw stream so rebuilds are reproducible.
func (b *Backing) Reset(seed uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	metricReservoirRebuilds.Inc()
	b.snap = nil
	b.ar.Reset()
	b.keys = b.keys[:0]
	b.pos = make(map[uint64]int, b.target)
	b.inserted, b.deleted, b.dropped = 0, 0, 0
	b.g = rng.New(seed)
}
