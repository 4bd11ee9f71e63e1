package value

import "fmt"

// Column is a named, typed column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns. In index context, the column order is
// the key order.
type Schema struct {
	cols     []Column
	byName   map[string]int
	rowWidth int
	offsets  [][2]int
}

// NewSchema builds a schema from the given columns, validating types and
// name uniqueness.
func NewSchema(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("value: schema must have at least one column")
	}
	s := &Schema{
		cols:   make([]Column, len(cols)),
		byName: make(map[string]int, len(cols)),
	}
	copy(s.cols, cols)
	for i, c := range s.cols {
		if c.Name == "" {
			return nil, fmt.Errorf("value: column %d has empty name", i)
		}
		if err := c.Type.Validate(); err != nil {
			return nil, fmt.Errorf("value: column %q: %w", c.Name, err)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("value: duplicate column name %q", c.Name)
		}
		s.byName[c.Name] = i
		s.offsets = append(s.offsets, [2]int{s.rowWidth, s.rowWidth + c.Type.FixedWidth()})
		s.rowWidth += c.Type.FixedWidth()
	}
	return s, nil
}

// ColumnOffsets returns the [start, end) byte range of each column within a
// fixed-width record. The slice is shared and must not be mutated.
func (s *Schema) ColumnOffsets() [][2]int { return s.offsets }

// MustSchema is NewSchema that panics on error; intended for tests and
// examples with literal schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column {
	out := make([]Column, len(s.cols))
	copy(out, s.cols)
	return out
}

// ColumnIndex returns the position of the named column and whether it exists.
func (s *Schema) ColumnIndex(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// RowWidth returns the fixed-width (uncompressed) size in bytes of one record.
func (s *Schema) RowWidth() int { return s.rowWidth }

// Project returns a new schema containing only the named columns, in the
// given order. Used to derive index key schemas from a table schema.
func (s *Schema) Project(names ...string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i, ok := s.byName[n]
		if !ok {
			return nil, fmt.Errorf("value: no column named %q", n)
		}
		cols = append(cols, s.cols[i])
	}
	return NewSchema(cols...)
}

// ColumnRun reports whether the columns at positions cols are adjacent and
// in schema order, and if so the byte range [off, off+width) they occupy in
// a record. Such a run's bytes, in a record or a key, are exactly the
// record or key of the projected row, so a RecordArena window over them
// stands in for a projected copy.
func (s *Schema) ColumnRun(cols []int) (off, width int, ok bool) {
	if len(cols) == 0 {
		return 0, 0, false
	}
	for k, c := range cols {
		if c < 0 || c >= len(s.cols) || (k > 0 && c != cols[k-1]+1) {
			return 0, 0, false
		}
	}
	off = s.offsets[cols[0]][0]
	return off, s.offsets[cols[len(cols)-1]][1] - off, true
}

// String renders the schema as "(a CHAR(20), b INT)".
func (s *Schema) String() string {
	out := "("
	for i, c := range s.cols {
		if i > 0 {
			out += ", "
		}
		out += c.Name + " " + c.Type.String()
	}
	return out + ")"
}
