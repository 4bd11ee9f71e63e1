// Package catalog defines the versioned data plane every estimation
// consumer speaks to. A catalog.Table is the single table abstraction
// shared by the storage engine (internal/db), the synthetic workload
// generators (internal/workload), the sampling schemes, the what-if
// engine, and cfserve: identity (name + process-unique instance id),
// schema, uniform random row access, and a monotonically increasing
// **version epoch** that mutation paths bump.
//
// The epoch is the invalidation contract of the whole stack:
//
//   - a table's epoch never decreases, and strictly increases on any
//     mutation that can change an estimate (insert, delete, reorder);
//   - anything derived from a table (an engine cache entry, a maintained
//     sample snapshot) records the epoch it was computed at;
//   - a derived value is valid iff its recorded (instance id, epoch) pair
//     still matches the table's — an O(1) comparison, with no row access.
//
// Cache invalidation therefore never scans data: a mutation bumps one
// atomic counter, and every stale derived value misses naturally because
// its key no longer matches. This replaces the engine's previous
// content-fingerprint keying, which probed table rows on every request.
package catalog

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"samplecf/internal/sampling"
	"samplecf/internal/value"
)

// Table is the versioned estimation source: what every consumer in the
// data plane (sampling, engine, advisor, cfserve) programs against.
type Table interface {
	// Name returns the table name.
	Name() string
	// Schema returns the row schema.
	Schema() *value.Schema
	// NumRows returns the live row count.
	NumRows() int64
	// Row materializes row i (0 ≤ i < NumRows); sampling.RowSource.
	Row(i int64) (value.Row, error)
	// Epoch returns the current version epoch. It strictly increases on
	// every mutation that can change an estimate and never decreases.
	Epoch() uint64
	// InstanceID returns a process-unique id for this table instance, so
	// two tables that share a name (for example, a dropped and re-created
	// table) never collide in epoch-keyed caches.
	InstanceID() uint64
}

// Sharded is the optional partitioning capability: tables whose rows are
// split across range/hash shards, each shard a full Table with its own
// instance id and epoch. The table-level Epoch() of a sharded table is an
// aggregate (the sum of shard epochs — monotone because each addend is),
// but epoch-keyed consumers should prefer EpochVector: keying derived
// state per shard means a mutation on one shard invalidates only that
// shard's entries, while everything derived from the untouched shards
// keeps serving. The engine's scatter-gather estimation path and the
// parallel TrueCF scan both discover shard structure through this
// interface.
type Sharded interface {
	Table
	// NumShards returns the number of shards (≥ 1, fixed at creation).
	NumShards() int
	// Shard returns shard i (0 ≤ i < NumShards) as a full Table: its
	// NumRows/Row/Epoch/InstanceID describe that shard alone.
	Shard(i int) Table
	// EpochVector snapshots every shard's epoch in shard order. The
	// vector is the cache contract: derived state recorded at
	// (InstanceID, shard i, EpochVector[i]) stays valid until shard i
	// itself mutates.
	EpochVector() []uint64
}

// PageProvider is the optional block-sampling capability: tables whose
// rows live on physical pages expose them for page-level draws.
type PageProvider interface {
	// PageSource returns a snapshot view of the table's pages. The view
	// reflects the epoch at call time; callers re-fetch after mutations.
	PageSource() (sampling.PageSource, error)
}

// Sample is a maintained-sample snapshot: rows that were a uniform random
// sample of the table as of Epoch, arena-encoded so estimation consumers
// gather from it by byte range — no per-row decoding between the
// maintained reservoir and the estimator.
type Sample struct {
	// Arena holds the sampled rows (records + memcomparable keys) under
	// the table's schema. It is a snapshot shared by every caller until
	// the sample next changes: later table mutations never change it, and
	// callers must treat it as read-only.
	Arena *value.RecordArena
	// Epoch is the table epoch the snapshot was taken at.
	Epoch uint64
}

// SampleProvider is the optional maintained-sample capability: tables
// that keep an incrementally maintained uniform sample (a backing sample
// updated on insert/delete) serve snapshots without an O(r) fresh draw.
type SampleProvider interface {
	// MaintainedSample returns a snapshot of at least min rows, or
	// ok=false when the maintained sample is missing, stale, or smaller
	// than min (callers then fall back to a fresh draw).
	MaintainedSample(min int64) (Sample, bool)
}

// SnapshotProvider is the optional lock-free-read capability: tables that
// publish copy-on-write row snapshots (an immutable arena view swapped in
// atomically on every mutation) hand readers a pinned, scan-stable view of
// their rows for the cost of one atomic pointer load. The returned source
// satisfies sampling.StableRowSource — its row set is frozen no matter
// what writers commit afterwards — so consumers that need whole-scan
// consistency (sample draws, TrueCF's parallel arena fill) can run against
// a live mutating table without holding its lock.
//
// Epoch-keyed caching is what makes the pinned view composable: the
// returned epoch is the table epoch the snapshot was published at, and a
// consumer that keys its derived state at that epoch gets exactly the
// invalidation contract documented above — if the table moved on, the
// epochs differ and the derived state misses naturally.
type SnapshotProvider interface {
	// SnapshotRows returns the current pinned row view and the epoch it
	// was published at. Implementations may rebuild lazily (after a
	// delete, say), so an error is possible; callers fall back to the
	// table's locked access paths.
	SnapshotRows() (sampling.StableRowSource, uint64, error)
}

// IndexBoundaryProvider is the optional index-assisted stratification
// capability: tables that maintain an ordered index over some key columns
// can cut the key domain into near-equal-count ranges from a walk of the
// index's separator keys — no table scan. Stratified estimation prefers
// these boundaries over a pilot sample when an index matches the request's
// key columns.
type IndexBoundaryProvider interface {
	// IndexKeyBoundaries returns up to strata-1 strictly ascending
	// memcomparable boundary keys from an index whose key columns equal
	// keyCols (nil/empty keyCols = all columns, matching core.Options), or
	// ok=false when no such index exists. Fewer boundaries than requested
	// (including zero, for a one-node index) is still ok=true: the index
	// simply supports fewer cut points.
	IndexKeyBoundaries(keyCols []string, strata int) (bounds [][]byte, ok bool)
}

// instanceIDs issues process-unique table instance ids. ID 0 is never
// issued, so the zero Version is detectably uninitialized.
var instanceIDs atomic.Uint64

// Version is the embeddable identity+epoch helper: a process-unique
// instance id plus an atomic epoch counter. Tables embed a Version
// (initialized with NewVersion) to satisfy the Epoch/InstanceID half of
// the Table interface.
type Version struct {
	id    uint64
	epoch atomic.Uint64
}

// NewVersion returns a Version with a fresh process-unique instance id
// and epoch 0.
func NewVersion() Version {
	return Version{id: instanceIDs.Add(1)}
}

// Epoch implements Table.
func (v *Version) Epoch() uint64 { return v.epoch.Load() }

// InstanceID implements Table.
func (v *Version) InstanceID() uint64 { return v.id }

// Bump advances the epoch by one and returns the new value. Mutation
// paths call it after the change is applied, so an estimate keyed at the
// new epoch never reflects pre-mutation data.
func (v *Version) Bump() uint64 { return v.epoch.Add(1) }

// Catalog is a named, concurrency-safe registry of live tables: the
// mount point cfserve and embedded consumers resolve names through.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]Table
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]Table)}
}

// Register adds t under its name; duplicate names are rejected.
func (c *Catalog) Register(t Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[t.Name()]; dup {
		return fmt.Errorf("catalog: table %q already registered", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// Lookup resolves a table by name.
func (c *Catalog) Lookup(name string) (Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// Drop removes a table from the catalog. The table object itself is not
// touched — storage-level teardown (marking it dropped) is the owner's
// job.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("catalog: no table %q", name)
	}
	delete(c.tables, name)
	return nil
}

// Names lists registered tables, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Len returns the number of registered tables.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.tables)
}
