// Package db is a miniature embedded database engine tying the substrates
// together: tables are heap files, indexes are B+-trees maintained on
// insert/delete, and compression-fraction estimation is a first-class
// operation on any index — the way a commercial engine surfaces
// sp_estimate_data_compression_savings.
//
// Tables are live catalog.Table implementations: every insert/delete bumps
// the table's version epoch, so estimation consumers (internal/engine,
// cmd/cfserve) invalidate cached results with one integer comparison
// instead of scanning data. Each table also maintains a backing sample
// (sampling.Backing) fed by the mutation path, so hot tables serve
// estimation samples without a fresh O(r) draw against storage.
//
// It is deliberately small (no SQL, no recovery) but end-to-end real:
// every row lives in slotted pages, every index entry carries the heap
// RID, and estimates run against the same storage the exact answers are
// computed from. Reads and mutations may run concurrently: mutations take
// the table's write lock, reads its read lock.
package db

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"samplecf/internal/btree"
	"samplecf/internal/catalog"
	"samplecf/internal/compress"
	"samplecf/internal/core"
	"samplecf/internal/heap"
	"samplecf/internal/page"
	"samplecf/internal/sampling"
	"samplecf/internal/value"
)

// ErrTableDropped is returned by operations on a table that has been
// dropped from its database. Retained *Table handles fail loudly instead
// of silently reading or mutating orphaned storage.
var ErrTableDropped = errors.New("db: table has been dropped")

// DefaultSampleTarget is the per-table maintained-sample size used when
// no option overrides it.
const DefaultSampleTarget = 2048

// Option configures a Database.
type Option func(*Database)

// WithSampleTarget sets the maintained-sample reservoir size for tables
// created afterwards (0 disables maintained samples).
func WithSampleTarget(rows int) Option {
	return func(d *Database) { d.sampleTarget = rows }
}

// WithSnapshots toggles copy-on-write row snapshots for tables created
// afterwards (default on). Disabling keeps the RWMutex-era read paths —
// lock-holding Scan, row-directory Row — and exists for the baseline arm
// of concurrency benchmarks and for workloads that cannot afford the
// mirror's memory (one extra encoded copy of each table).
func WithSnapshots(enabled bool) Option {
	return func(d *Database) { d.snapshots = enabled }
}

// Database is a named collection of tables.
type Database struct {
	mu           sync.RWMutex
	pageSize     int
	sampleTarget int
	snapshots    bool
	tables       map[string]*Table
	sharded      map[string]*ShardedTable
}

// New creates an empty database. pageSize 0 selects page.DefaultSize.
func New(pageSize int, opts ...Option) *Database {
	if pageSize == 0 {
		pageSize = page.DefaultSize
	}
	d := &Database{
		pageSize:     pageSize,
		sampleTarget: DefaultSampleTarget,
		snapshots:    true,
		tables:       make(map[string]*Table),
		sharded:      make(map[string]*ShardedTable),
	}
	for _, opt := range opts {
		opt(d)
	}
	return d
}

// newTable builds a heap-backed table without registering it: the shared
// construction behind both user-visible tables and the per-shard children
// of a ShardedTable.
func (d *Database) newTable(name string, schema *value.Schema) (*Table, error) {
	file, err := heap.Create(heap.NewMemStore(d.pageSize), schema)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Version: catalog.NewVersion(),
		db:      d,
		name:    name,
		schema:  schema,
		file:    file,
		indexes: make(map[string]*Index),
	}
	if d.snapshots {
		// Start the mirror empty and publish the empty view at epoch 0, so
		// the append-only path tracks from the very first insert with no
		// rebuild ever needed until the first delete.
		t.snapshot.enabled = true
		t.snapshot.live = value.NewRecordArena(schema, 0)
		t.publishSnapshotLocked(t.Epoch())
	}
	if d.sampleTarget > 0 {
		t.sampleSeed = t.InstanceID() * 0x9e3779b97f4a7c15
		t.sample, err = sampling.NewBacking(schema, d.sampleTarget, t.sampleSeed)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// CreateTable registers a new heap-backed table.
func (d *Database) CreateTable(name string, schema *value.Schema) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkNameFreeLocked(name); err != nil {
		return nil, err
	}
	t, err := d.newTable(name, schema)
	if err != nil {
		return nil, err
	}
	d.tables[name] = t
	return t, nil
}

// checkNameFreeLocked rejects a name already taken by a plain or sharded
// table. The caller holds the database lock.
func (d *Database) checkNameFreeLocked(name string) error {
	if _, dup := d.tables[name]; dup {
		return fmt.Errorf("db: table %q already exists", name)
	}
	if _, dup := d.sharded[name]; dup {
		return fmt.Errorf("db: table %q already exists", name)
	}
	return nil
}

// Table returns a table by name.
func (d *Database) Table(name string) (*Table, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[name]
	return t, ok
}

// DropTable removes a table and its indexes. The table object is marked
// dropped: any retained *Table handle fails subsequent operations with
// ErrTableDropped instead of touching orphaned storage. Dropping a
// sharded table drops every shard.
func (d *Database) DropTable(name string) error {
	d.mu.Lock()
	t, ok := d.tables[name]
	if !ok {
		st, sok := d.sharded[name]
		if !sok {
			d.mu.Unlock()
			return fmt.Errorf("db: no table %q", name)
		}
		delete(d.sharded, name)
		d.mu.Unlock()
		st.markDropped()
		return nil
	}
	delete(d.tables, name)
	d.mu.Unlock()
	t.markDropped()
	return nil
}

// markDropped flags the table dropped and invalidates epoch-keyed state.
func (t *Table) markDropped() {
	t.mu.Lock()
	t.dropped = true
	t.rowDir = nil
	t.invalidateSnapshotLocked()
	t.mu.Unlock()
	t.Bump() // stale any epoch-keyed derived state immediately
}

// TableNames lists tables (plain and sharded), sorted.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.tables)+len(d.sharded))
	for n := range d.tables {
		out = append(out, n)
	}
	for n := range d.sharded {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// PageSize returns the database's page size.
func (d *Database) PageSize() int { return d.pageSize }

// Table is one heap-backed table plus its maintained indexes. It
// implements catalog.Table (and the catalog sample/page capabilities):
// mutations bump the embedded version epoch after they apply.
type Table struct {
	catalog.Version
	db     *Database
	name   string
	schema *value.Schema

	mu      sync.RWMutex
	file    *heap.File
	dropped bool
	indexes map[string]*Index
	// rowDir caches the RID directory for random-access sampling; nil
	// when stale (any mutation invalidates it). Only the WithSnapshots(false)
	// baseline uses it — snapshot-enabled tables serve Row from the
	// published snapshot without locks.
	rowDir *heap.RowDir

	// snapshot is the copy-on-write read view (see snapshot.go): a
	// writer-private mirror arena plus the atomically published Snapshot.
	snapshot snapshotState

	// sample is the maintained backing sample fed by Insert/Delete; nil
	// when the database disables maintained samples.
	sample         *sampling.Backing
	sampleSeed     uint64
	sampleRebuilds uint64
}

var _ catalog.Table = (*Table)(nil)
var _ catalog.SampleProvider = (*Table)(nil)
var _ catalog.PageProvider = (*Table)(nil)
var _ catalog.IndexBoundaryProvider = (*Table)(nil)
var _ catalog.SnapshotProvider = (*Table)(nil)
var _ sampling.StableRowSource = (*Snapshot)(nil)
var _ sampling.RecordSource = (*Snapshot)(nil)

// Name implements catalog.Table.
func (t *Table) Name() string { return t.name }

// Schema implements catalog.Table.
func (t *Table) Schema() *value.Schema { return t.schema }

// NumRows implements catalog.Table. With snapshots enabled the count comes
// from the published view — one atomic load, no lock. A non-nil published
// snapshot is always current: every mutation either publishes a successor
// or nils the pointer before releasing the write lock.
func (t *Table) NumRows() int64 {
	if s := t.snapshot.snap.Load(); s != nil {
		return s.NumRows()
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.file.NumRows()
}

// ridKey packs a RID into the uint64 storage key the backing sample uses
// for exact delete tolerance.
func ridKey(rid heap.RID) uint64 {
	return uint64(rid.Page)<<16 | uint64(rid.Slot)
}

// Insert appends a row, maintains every index and the backing sample, and
// bumps the version epoch.
func (t *Table) Insert(row value.Row) (heap.RID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return heap.RID{}, ErrTableDropped
	}
	rid, err := t.file.Append(row)
	if err != nil {
		return heap.RID{}, err
	}
	// Storage changed: the epoch must bump on every exit from here on,
	// including index-maintenance failures, or stale estimates would keep
	// serving at the old epoch. On the success path the same deferred hook
	// extends the snapshot mirror and publishes the new view at the
	// post-mutation epoch — heap appends always land on the tail page, so
	// appending to the mirror preserves heap scan order. On any failure the
	// mirror is dropped instead: derived state may be half-updated, and a
	// lazy rebuild is cheaper than reasoning about partial maintenance.
	ok := false
	defer func() {
		epoch := t.Bump()
		if !t.snapshot.enabled {
			return
		}
		if !ok || t.snapshot.live == nil {
			// Failure, or the mirror was already dropped by an earlier
			// delete; the next Snapshot() call rebuilds with one scan.
			t.invalidateSnapshotLocked()
			return
		}
		if err := t.snapshot.live.Append(row); err != nil {
			t.invalidateSnapshotLocked()
			return
		}
		t.snapshot.liveRIDs = append(t.snapshot.liveRIDs, ridKey(rid))
		t.publishSnapshotLocked(epoch)
	}()
	t.rowDir = nil
	if t.sample != nil {
		// The backing sample encodes the row into its own arena; no clone.
		if err := t.sample.Insert(ridKey(rid), row); err != nil {
			return heap.RID{}, fmt.Errorf("db: maintain sample: %w", err)
		}
	}
	for _, ix := range t.indexes {
		if err := ix.insertEntry(row, rid); err != nil {
			return heap.RID{}, fmt.Errorf("db: maintain index %s: %w", ix.name, err)
		}
	}
	ok = true
	return rid, nil
}

// Delete removes the row at rid from the heap, every index, and the
// backing sample, and bumps the version epoch.
func (t *Table) Delete(rid heap.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return ErrTableDropped
	}
	return t.deleteLocked(rid)
}

// deleteLocked is Delete with the write lock already held.
func (t *Table) deleteLocked(rid heap.RID) error {
	row, err := t.file.Get(rid)
	if err != nil {
		return err
	}
	if err := t.file.Delete(rid); err != nil {
		return err
	}
	// Storage changed: the epoch must bump on every exit from here on,
	// including index-maintenance failures. Deletes shrink the heap in
	// place, so the append-only mirror cannot track them — drop it and let
	// the next snapshot request rebuild.
	defer func() {
		t.Bump()
		t.invalidateSnapshotLocked()
	}()
	t.rowDir = nil
	if t.sample != nil {
		t.sample.Delete(ridKey(rid))
	}
	for _, ix := range t.indexes {
		if err := ix.deleteEntry(row, rid); err != nil {
			return fmt.Errorf("db: maintain index %s: %w", ix.name, err)
		}
	}
	return nil
}

// Get fetches a row by RID.
func (t *Table) Get(rid heap.RID) (value.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.dropped {
		return nil, ErrTableDropped
	}
	return t.file.Get(rid)
}

// Scan iterates all rows (core.RowScanner / workload.Scanner shape). With
// a published snapshot the scan runs lock-free against the immutable view
// (same rows, same order as the heap walk); otherwise the table is
// read-locked for the duration of the scan.
func (t *Table) Scan(fn func(i int64, row value.Row) error) error {
	if s := t.snapshot.snap.Load(); s != nil {
		return s.Scan(fn)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.dropped {
		return ErrTableDropped
	}
	i := int64(0)
	return t.file.Scan(func(_ heap.RID, row value.Row) error {
		err := fn(i, row)
		i++
		return err
	})
}

// Row implements catalog.Table: uniform random access for sampling. With a
// published snapshot the lookup is one atomic load plus an arena decode —
// no lock, and inserts never stall behind it. When the snapshot is missing
// (disabled, or dropped by a delete) the first call rebuilds the relevant
// directory with one scan under the write lock; subsequent calls are a
// lookup.
func (t *Table) Row(i int64) (value.Row, error) {
	if s := t.snapshot.snap.Load(); s != nil {
		return s.Row(i)
	}
	t.mu.RLock()
	if t.dropped {
		t.mu.RUnlock()
		return nil, ErrTableDropped
	}
	if dir := t.rowDir; dir != nil {
		defer t.mu.RUnlock()
		return dir.Row(i)
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return nil, ErrTableDropped
	}
	if t.snapshot.enabled {
		// Rebuild the snapshot rather than the RID directory: the same
		// O(n) scan yields an artifact every later reader uses lock-free.
		if s := t.snapshot.snap.Load(); s == nil {
			if err := t.rebuildSnapshotLocked(); err != nil {
				return nil, err
			}
		}
		return t.snapshot.snap.Load().Row(i)
	}
	if t.rowDir == nil {
		dir, err := heap.NewRowDir(t.file)
		if err != nil {
			return nil, err
		}
		t.rowDir = dir
	}
	return t.rowDir.Row(i)
}

// DeleteWhere removes up to limit rows whose column equals val
// (limit <= 0 means all matches), returning the number deleted. It is
// the predicate-delete primitive cfserve's mutation endpoint uses; each
// physical delete maintains indexes and the backing sample and bumps the
// epoch, exactly like Delete. The scan and the deletes run under one
// write lock, so concurrent mutations can never invalidate a matched RID
// mid-operation.
func (t *Table) DeleteWhere(column string, val []byte, limit int) (int, error) {
	pos, ok := t.schema.ColumnIndex(column)
	if !ok {
		return 0, fmt.Errorf("db: no column %q", column)
	}
	typ := t.schema.Column(pos).Type
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return 0, ErrTableDropped
	}
	var rids []heap.RID
	err := t.file.Scan(func(rid heap.RID, row value.Row) error {
		if value.CompareValues(typ, row[pos], val) == 0 {
			rids = append(rids, rid)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if limit > 0 && len(rids) > limit {
		rids = rids[:limit]
	}
	for i, rid := range rids {
		if err := t.deleteLocked(rid); err != nil {
			return i, fmt.Errorf("db: delete %v: %w", rid, err)
		}
	}
	return len(rids), nil
}

// MaintainedSample implements catalog.SampleProvider: it returns the
// backing-sample snapshot at the current epoch, rebuilding first when the
// staleness policy demands it. ok is false when maintained sampling is
// disabled, the table is dropped, or fewer than min rows are available
// even after a rebuild.
func (t *Table) MaintainedSample(min int64) (catalog.Sample, bool) {
	if t.sample == nil {
		return catalog.Sample{}, false
	}
	t.mu.RLock()
	if t.dropped {
		t.mu.RUnlock()
		return catalog.Sample{}, false
	}
	if t.sample.Stale(t.file.NumRows()) {
		t.mu.RUnlock()
		t.mu.Lock()
		if !t.dropped && t.sample.Stale(t.file.NumRows()) {
			if err := t.rebuildSampleLocked(); err != nil {
				t.mu.Unlock()
				return catalog.Sample{}, false
			}
		}
		t.mu.Unlock()
		t.mu.RLock()
		if t.dropped {
			t.mu.RUnlock()
			return catalog.Sample{}, false
		}
	}
	ar := t.sample.SnapshotArena()
	epoch := t.Epoch()
	t.mu.RUnlock()
	if int64(ar.Len()) < min {
		return catalog.Sample{}, false
	}
	return catalog.Sample{Arena: ar, Epoch: epoch}, true
}

// rebuildSampleLocked refills the backing sample. With a current snapshot
// the rows come from its arena (decodes, no page walk) in the same order
// with the same storage keys the heap scan would produce, so the refilled
// reservoir is identical either way. The caller holds the write lock.
func (t *Table) rebuildSampleLocked() error {
	t.sampleRebuilds++
	t.sample.Reset(t.sampleSeed + t.sampleRebuilds)
	if s := t.snapshot.snap.Load(); s != nil {
		for i := 0; i < s.ar.Len(); i++ {
			row, err := s.ar.Row(i)
			if err != nil {
				return err
			}
			if err := t.sample.Insert(s.rids[i], row); err != nil {
				return err
			}
		}
		return nil
	}
	return t.file.Scan(func(rid heap.RID, row value.Row) error {
		return t.sample.Insert(ridKey(rid), row)
	})
}

// SampleStats reports the maintained sample's counters plus the number of
// staleness-triggered rebuilds (zero stats when disabled).
func (t *Table) SampleStats() (sampling.BackingStats, uint64) {
	if t.sample == nil {
		return sampling.BackingStats{}, 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sample.Stats(), t.sampleRebuilds
}

// PageSource implements catalog.PageProvider: a snapshot view of the
// table's real heap pages for block sampling.
func (t *Table) PageSource() (sampling.PageSource, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return nil, ErrTableDropped
	}
	return heap.NewFilePages(t.file)
}

// CreateIndex builds a B+-tree index on keyCols (empty = all columns) with
// an optional target codec recorded for estimation. Existing rows are
// bulk-loaded; subsequent Insert/Delete maintain the tree incrementally.
func (t *Table) CreateIndex(name string, keyCols []string, codec compress.Codec) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return nil, ErrTableDropped
	}
	if _, dup := t.indexes[name]; dup {
		return nil, fmt.Errorf("db: index %q already exists", name)
	}
	keySchema := t.schema
	var err error
	if len(keyCols) > 0 {
		keySchema, err = t.schema.Project(keyCols...)
		if err != nil {
			return nil, err
		}
	}
	ix := &Index{
		name:      name,
		table:     t,
		keyCols:   keyCols,
		keySchema: keySchema,
		codec:     codec,
	}
	// Bulk load from a sorted snapshot of the heap.
	type ent struct {
		key, payload []byte
	}
	var ents []ent
	err = t.file.Scan(func(rid heap.RID, row value.Row) error {
		key, payload, err := ix.encodeEntry(row, rid)
		if err != nil {
			return err
		}
		ents = append(ents, ent{key, payload})
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(ents, func(a, b ent) int { return bytes.Compare(a.key, b.key) })
	items := make([]btree.Item, len(ents))
	for i, e := range ents {
		items[i] = btree.Item{Key: e.key, Payload: e.payload}
	}
	tree, err := btree.BulkLoadItems(heap.NewMemStore(t.db.pageSize), items, 1.0)
	if err != nil {
		return nil, err
	}
	ix.tree = tree
	t.indexes[name] = ix
	return ix, nil
}

// IndexKeyBoundaries implements catalog.IndexBoundaryProvider: when some
// index's key columns equal keyCols (nil/empty = all columns, on either
// side), its separator keys cut the key domain into up to `strata`
// near-equal-entry-count ranges for stratified estimation — one short walk
// of the tree's internal levels, no table scan. Index names are visited in
// sorted order so the choice among several matching indexes is
// deterministic.
func (t *Table) IndexKeyBoundaries(keyCols []string, strata int) ([][]byte, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := make([]string, 0, len(t.indexes))
	for n := range t.indexes {
		names = append(names, n)
	}
	slices.Sort(names)
	want := t.resolveKeyCols(keyCols)
	for _, n := range names {
		ix := t.indexes[n]
		if !slices.Equal(t.resolveKeyCols(ix.keyCols), want) {
			continue
		}
		bounds, err := ix.tree.SeparatorKeys(strata)
		if err != nil {
			continue
		}
		return bounds, true
	}
	return nil, false
}

// resolveKeyCols normalizes a key-column list: nil/empty means every
// schema column, in schema order.
func (t *Table) resolveKeyCols(keyCols []string) []string {
	if len(keyCols) > 0 {
		return keyCols
	}
	out := make([]string, t.schema.NumColumns())
	for i := range out {
		out[i] = t.schema.Column(i).Name
	}
	return out
}

// Index returns a table's index by name.
func (t *Table) Index(name string) (*Index, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[name]
	return ix, ok
}

// IndexNames lists the table's indexes, sorted.
func (t *Table) IndexNames() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.indexes))
	for n := range t.indexes {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Index is a maintained B+-tree over a table's key columns. Leaf payloads
// are the fixed-width key record followed by the 6-byte heap RID.
type Index struct {
	name      string
	table     *Table
	keyCols   []string
	keySchema *value.Schema
	codec     compress.Codec
	tree      *btree.Tree
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// KeyColumns returns the indexed column names (nil = all).
func (ix *Index) KeyColumns() []string { return ix.keyCols }

// NumEntries returns the number of index entries.
func (ix *Index) NumEntries() int64 { return ix.tree.NumEntries() }

// ridSize is the encoded RID width (4-byte page + 2-byte slot).
const ridSize = 6

// encodeEntry builds the (search key, payload) pair for a row.
func (ix *Index) encodeEntry(row value.Row, rid heap.RID) (key, payload []byte, err error) {
	krow := ix.projectRow(row)
	key, err = value.EncodeKey(ix.keySchema, krow, nil)
	if err != nil {
		return nil, nil, err
	}
	payload, err = value.EncodeRecord(ix.keySchema, krow, nil)
	if err != nil {
		return nil, nil, err
	}
	payload = append(payload,
		byte(rid.Page), byte(rid.Page>>8), byte(rid.Page>>16), byte(rid.Page>>24),
		byte(rid.Slot), byte(rid.Slot>>8))
	return key, payload, nil
}

// decodeRID extracts the RID suffix from a payload.
func decodeRID(payload []byte) heap.RID {
	s := payload[len(payload)-ridSize:]
	return heap.RID{
		Page: uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24,
		Slot: uint16(s[4]) | uint16(s[5])<<8,
	}
}

// projectRow extracts the key columns from a full row.
func (ix *Index) projectRow(row value.Row) value.Row {
	if len(ix.keyCols) == 0 {
		return row
	}
	out := make(value.Row, len(ix.keyCols))
	for i, name := range ix.keyCols {
		pos, _ := ix.table.schema.ColumnIndex(name)
		out[i] = row[pos]
	}
	return out
}

// insertEntry maintains the tree for one new row.
func (ix *Index) insertEntry(row value.Row, rid heap.RID) error {
	key, payload, err := ix.encodeEntry(row, rid)
	if err != nil {
		return err
	}
	return ix.tree.Insert(key, payload)
}

// deleteEntry maintains the tree for one removed row.
func (ix *Index) deleteEntry(row value.Row, rid heap.RID) error {
	key, payload, err := ix.encodeEntry(row, rid)
	if err != nil {
		return err
	}
	found, err := ix.tree.DeleteMatching(key, payload)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("db: index %s out of sync: entry for %v missing", ix.name, rid)
	}
	return nil
}

// Lookup returns the RIDs of all rows whose key columns equal keyRow.
func (ix *Index) Lookup(keyRow value.Row) ([]heap.RID, error) {
	ix.table.mu.RLock()
	defer ix.table.mu.RUnlock()
	if ix.table.dropped {
		return nil, ErrTableDropped
	}
	key, err := value.EncodeKey(ix.keySchema, keyRow, nil)
	if err != nil {
		return nil, err
	}
	var rids []heap.RID
	err = ix.tree.Ascend(key, func(k, payload []byte) bool {
		if !bytes.Equal(k, key) {
			return false
		}
		rids = append(rids, decodeRID(payload))
		return true
	})
	return rids, err
}

// EstimateCF runs SampleCF against the live table for this index's key
// columns, using the given codec (nil = the codec declared at CreateIndex).
func (ix *Index) EstimateCF(codec compress.Codec, fraction float64, seed uint64) (core.Estimate, error) {
	if codec == nil {
		codec = ix.codec
	}
	if codec == nil {
		return core.Estimate{}, fmt.Errorf("db: index %s has no codec; pass one", ix.name)
	}
	return core.SampleCF(ix.table, ix.table.schema, core.Options{
		Fraction:   fraction,
		Codec:      codec,
		KeyColumns: ix.keyCols,
		Seed:       seed,
		PageSize:   ix.table.db.pageSize,
	})
}

// ExactCF compresses the index's actual leaf records (RID suffixes
// excluded, matching the paper's model) and returns the true result.
func (ix *Index) ExactCF(codec compress.Codec) (compress.Result, error) {
	if codec == nil {
		codec = ix.codec
	}
	if codec == nil {
		return compress.Result{}, fmt.Errorf("db: index %s has no codec; pass one", ix.name)
	}
	ix.table.mu.RLock()
	defer ix.table.mu.RUnlock()
	if ix.table.dropped {
		return compress.Result{}, ErrTableDropped
	}
	sess, err := codec.NewSession(ix.keySchema)
	if err != nil {
		return compress.Result{}, err
	}
	err = ix.tree.LeafPages(func(_ uint32, p *page.Page) error {
		_, payloads, err := btree.LeafEntries(p)
		if err != nil {
			return err
		}
		recs := make([][]byte, len(payloads))
		for i, pl := range payloads {
			if len(pl) < ridSize {
				return fmt.Errorf("db: index %s: malformed payload", ix.name)
			}
			recs[i] = pl[:len(pl)-ridSize]
		}
		return sess.AddPage(recs)
	})
	if err != nil {
		return compress.Result{}, err
	}
	return sess.Finish()
}
