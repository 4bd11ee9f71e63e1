package workload

import (
	"fmt"
	"slices"

	"samplecf/internal/catalog"
	"samplecf/internal/rng"
	"samplecf/internal/sampling"
	"samplecf/internal/value"
)

// Layout controls the physical row order of a materialized table. It does
// not change the value distribution — only which rows are neighbors, the
// property block sampling (E7) is sensitive to.
type Layout int

const (
	// LayoutShuffled stores rows in independent random draw order.
	LayoutShuffled Layout = iota
	// LayoutClustered stores rows sorted by the first column, modeling a
	// clustered index organization where equal values share pages.
	LayoutClustered
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case LayoutShuffled:
		return "shuffled"
	case LayoutClustered:
		return "clustered"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Spec describes a synthetic table.
type Spec struct {
	Name   string
	N      int64
	Seed   uint64
	Cols   []SpecColumn
	Layout Layout
}

// SpecColumn pairs a column name with its generator.
type SpecColumn struct {
	Name string
	Gen  ColumnGen
}

// Schema derives the value.Schema of the spec.
func (s Spec) Schema() (*value.Schema, error) {
	cols := make([]value.Column, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = value.Column{Name: c.Name, Type: c.Gen.Type()}
	}
	return value.NewSchema(cols...)
}

// rowOf materializes row i of the spec: one independent domain draw per
// column from a per-(seed, column, row) derived generator.
func (s Spec) rowOf(i int64) value.Row {
	row := make(value.Row, len(s.Cols))
	for c, col := range s.Cols {
		row[c] = col.Gen.Payload(s.domainOf(i, c))
	}
	return row
}

// domainOf returns the domain index drawn for (row i, column c) — the draw
// rowOf makes, exposed for exact distinct counting.
func (s Spec) domainOf(i int64, c int) int64 {
	r := rng.New(s.Seed ^ uint64(c+1)*0xd1342543de82ef95 ^ uint64(i)*0x9e3779b97f4a7c15)
	return s.Cols[c].Gen.Dist().Draw(r)
}

// Table is a fully materialized synthetic table. Its rows live in one
// frozen, records-only store: n·RowWidth bytes holding each row's
// fixed-width record (value.EncodeRecord) at offset i·RowWidth, with no
// per-row heap objects, so draws gather bytes (sampling.RecordSource) and
// the garbage collector has nothing to trace. The store is never written
// in place — a re-layout builds a new one and bumps the epoch — so readers
// holding the previous store keep a consistent view.
//
// Table implements catalog.Table (the embedded Version supplies epoch +
// instance id); AsPageSource adapts it for block sampling.
type Table struct {
	catalog.Version
	name   string
	schema *value.Schema
	recs   []byte
}

var _ catalog.Table = (*Table)(nil)
var _ sampling.RecordSource = (*Table)(nil)

// Generate materializes a table from spec, encoding each generated value
// straight into the record store.
func Generate(spec Spec) (*Table, error) {
	if spec.N < 0 {
		return nil, fmt.Errorf("workload: negative row count %d", spec.N)
	}
	if len(spec.Cols) == 0 {
		return nil, fmt.Errorf("workload: spec has no columns")
	}
	schema, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	recs := make([]byte, 0, spec.N*int64(schema.RowWidth()))
	for i := int64(0); i < spec.N; i++ {
		for c, col := range spec.Cols {
			recs, err = value.AppendField(recs, schema.Column(c), col.Gen.Payload(spec.domainOf(i, c)))
			if err != nil {
				return nil, fmt.Errorf("workload: row %d: %w", i, err)
			}
		}
	}
	t := &Table{Version: catalog.NewVersion(), name: spec.Name, schema: schema, recs: recs}
	if spec.Layout == LayoutClustered {
		t.SortByColumn(0)
	}
	return t, nil
}

// NewTableFromRows encodes existing rows into a table (used by CSV import
// and tests). Rows are validated here, once; the table keeps no reference
// to them.
func NewTableFromRows(name string, schema *value.Schema, rows []value.Row) (*Table, error) {
	recs := make([]byte, 0, len(rows)*schema.RowWidth())
	for i, r := range rows {
		var err error
		if recs, err = value.EncodeRecord(schema, r, recs); err != nil {
			return nil, fmt.Errorf("workload: row %d: %w", i, err)
		}
	}
	return &Table{Version: catalog.NewVersion(), name: name, schema: schema, recs: recs}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *value.Schema { return t.schema }

// NumRows implements sampling.RowSource.
func (t *Table) NumRows() int64 { return int64(len(t.recs) / t.schema.RowWidth()) }

// Records implements sampling.RecordSource.
func (t *Table) Records() []byte { return t.recs }

// rec returns row i's record.
func (t *Table) rec(i int64) []byte {
	w := int64(t.schema.RowWidth())
	return t.recs[i*w : (i+1)*w : (i+1)*w]
}

// Row implements sampling.RowSource by decoding row i's record. The
// payloads alias the store, which is never modified, so they are safe to
// retain.
func (t *Table) Row(i int64) (value.Row, error) {
	if n := t.NumRows(); i < 0 || i >= n {
		return nil, fmt.Errorf("workload: row %d out of range [0,%d)", i, n)
	}
	return value.DecodeRecord(t.schema, t.rec(i))
}

// StableRows marks the table as a sampling.StableRowSource: rows only move
// through the explicit re-layout calls (SortByColumn, Shuffle) the owner
// serializes around readers, so concurrent sweeps see one frozen state.
func (t *Table) StableRows() {}

// Scan iterates all rows in storage order.
func (t *Table) Scan(fn func(i int64, row value.Row) error) error {
	for i := int64(0); i < t.NumRows(); i++ {
		row, err := t.Row(i)
		if err != nil {
			return err
		}
		if err := fn(i, row); err != nil {
			return err
		}
	}
	return nil
}

// SortByColumn physically sorts rows by the given column (clustered
// layout), stable, into a new record store. The reorder bumps the version
// epoch: row indices shift, so anything keyed on the previous epoch
// (cached estimates, samples) is stale.
func (t *Table) SortByColumn(col int) {
	typ := t.schema.Column(col).Type
	span := t.schema.ColumnOffsets()[col]
	field := func(i int32) []byte { return t.rec(int64(i))[span[0]:span[1]] }
	perm := t.identity()
	slices.SortStableFunc(perm, func(a, b int32) int {
		return value.CompareValues(typ, field(a), field(b))
	})
	t.permute(perm)
}

// Shuffle randomizes physical row order with g into a new record store and
// bumps the epoch.
func (t *Table) Shuffle(g *rng.RNG) {
	perm := t.identity()
	g.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	t.permute(perm)
}

// identity returns the identity permutation over the table's rows.
func (t *Table) identity() []int32 {
	perm := make([]int32, t.NumRows())
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// permute replaces the store with one holding row perm[j] at position j,
// and bumps the epoch.
func (t *Table) permute(perm []int32) {
	recs := make([]byte, 0, len(t.recs))
	for _, i := range perm {
		recs = append(recs, t.rec(int64(i))...)
	}
	t.recs = recs
	t.Bump()
}

// PageView adapts the table to sampling.PageSource with a fixed number of
// rows per synthetic page.
type PageView struct {
	t       *Table
	perPage int
}

// AsPageSource groups the table's rows into pages of perPage rows.
func (t *Table) AsPageSource(perPage int) (*PageView, error) {
	if perPage <= 0 {
		return nil, fmt.Errorf("workload: perPage %d must be positive", perPage)
	}
	return &PageView{t: t, perPage: perPage}, nil
}

// NumPages implements sampling.PageSource.
func (p *PageView) NumPages() int {
	return int((p.t.NumRows() + int64(p.perPage) - 1) / int64(p.perPage))
}

// PageRows implements sampling.PageSource.
func (p *PageView) PageRows(i int) ([]value.Row, error) {
	start := int64(i) * int64(p.perPage)
	if start >= p.t.NumRows() {
		return nil, fmt.Errorf("workload: page %d out of range", i)
	}
	end := start + int64(p.perPage)
	if end > p.t.NumRows() {
		end = p.t.NumRows()
	}
	rows := make([]value.Row, 0, end-start)
	for i := start; i < end; i++ {
		row, err := p.t.Row(i)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// VirtualTable is a generator-backed table that never materializes rows:
// row i is recomputed on demand. It makes the paper's Example 1 (n = 10⁸)
// runnable in constant memory. Virtual tables always have IID (shuffled)
// layout, are immutable, and therefore stay at epoch 0 forever.
type VirtualTable struct {
	catalog.Version
	spec   Spec
	schema *value.Schema
}

var _ catalog.Table = (*VirtualTable)(nil)

// NewVirtual builds a virtual table over spec.
func NewVirtual(spec Spec) (*VirtualTable, error) {
	if spec.N < 0 {
		return nil, fmt.Errorf("workload: negative row count %d", spec.N)
	}
	if len(spec.Cols) == 0 {
		return nil, fmt.Errorf("workload: spec has no columns")
	}
	if spec.Layout != LayoutShuffled {
		return nil, fmt.Errorf("workload: virtual tables support only the shuffled layout")
	}
	schema, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	return &VirtualTable{Version: catalog.NewVersion(), spec: spec, schema: schema}, nil
}

// Name returns the table name.
func (v *VirtualTable) Name() string { return v.spec.Name }

// Schema returns the table schema.
func (v *VirtualTable) Schema() *value.Schema { return v.schema }

// NumRows implements sampling.RowSource.
func (v *VirtualTable) NumRows() int64 { return v.spec.N }

// StableRows marks the table as a sampling.StableRowSource: rows are pure
// functions of the row index, so any sweep is trivially consistent.
func (v *VirtualTable) StableRows() {}

// Row implements sampling.RowSource.
func (v *VirtualTable) Row(i int64) (value.Row, error) {
	if i < 0 || i >= v.spec.N {
		return nil, fmt.Errorf("workload: row %d out of range [0,%d)", i, v.spec.N)
	}
	return v.spec.rowOf(i), nil
}

// Scan iterates all rows; O(1) memory, O(n) time.
func (v *VirtualTable) Scan(fn func(i int64, row value.Row) error) error {
	for i := int64(0); i < v.spec.N; i++ {
		if err := fn(i, v.spec.rowOf(i)); err != nil {
			return err
		}
	}
	return nil
}

// DomainAt exposes the domain index drawn for (row, column), letting stats
// code count distincts over domain indices (bitset) instead of payloads.
func (v *VirtualTable) DomainAt(i int64, col int) int64 { return v.spec.domainOf(i, col) }
