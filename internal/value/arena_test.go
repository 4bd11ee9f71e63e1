package value

import (
	"bytes"
	"testing"
	"testing/quick"

	"samplecf/internal/rng"
)

// arenaTestSchema covers every value kind at mixed widths.
func arenaTestSchema() *Schema {
	return MustSchema(
		Column{Name: "c", Type: Char(9)},
		Column{Name: "i", Type: Int32()},
		Column{Name: "v", Type: VarChar(5)},
		Column{Name: "b", Type: Int64()},
		Column{Name: "c2", Type: Char(1)},
	)
}

// randArenaRow draws a valid row for arenaTestSchema.
func randArenaRow(r *rng.RNG) Row {
	str := make([]byte, r.Intn(10))
	for i := range str {
		str[i] = byte(0x1E + r.Intn(0x60))
	}
	str = bytes.TrimRight(str, " ")
	vc := make([]byte, r.Intn(6))
	for i := range vc {
		vc[i] = byte(1 + r.Intn(255))
	}
	c2 := make([]byte, r.Intn(2))
	for i := range c2 {
		c2[i] = byte('!' + r.Intn(90))
	}
	return Row{
		str,
		IntValue(int32(r.Uint32())),
		vc,
		Int64Value(int64(r.Uint64())),
		c2,
	}
}

// TestPropertyArenaMatchesRowEncoders is the hot path's bit-transparency
// contract: for ANY rows, the arena's record and key buffers are
// byte-for-byte what per-row EncodeRecord/EncodeKey produce.
func TestPropertyArenaMatchesRowEncoders(t *testing.T) {
	schema := arenaTestSchema()
	f := func(seed uint64, nRows uint8) bool {
		r := rng.New(seed)
		n := int(nRows%17) + 1
		ar := NewRecordArena(schema, 0) // zero capacity: growth path exercised
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = randArenaRow(r)
			if err := ar.Append(rows[i]); err != nil {
				t.Logf("seed %d: append: %v", seed, err)
				return false
			}
		}
		if ar.Len() != n {
			return false
		}
		for i, row := range rows {
			wantRec, err := EncodeRecord(schema, row, nil)
			if err != nil {
				return false
			}
			wantKey, err := EncodeKey(schema, row, nil)
			if err != nil {
				return false
			}
			if !bytes.Equal(ar.Rec(i), wantRec) {
				t.Logf("seed %d row %d: rec %x, want %x", seed, i, ar.Rec(i), wantRec)
				return false
			}
			if !bytes.Equal(ar.Key(i), wantKey) {
				t.Logf("seed %d row %d: key %x, want %x", seed, i, ar.Key(i), wantKey)
				return false
			}
			// And the decode path returns the logical row.
			dec, err := ar.Row(i)
			if err != nil || CompareRows(schema, dec, row) != 0 {
				t.Logf("seed %d row %d: decode mismatch (%v)", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyArenaProjection: projecting an arena column subset equals
// encoding the projected rows from scratch, for every key column order the
// estimator can request.
func TestPropertyArenaProjection(t *testing.T) {
	schema := arenaTestSchema()
	projections := [][]int{{0}, {1}, {3}, {2, 4}, {1, 0}, {4, 3, 2, 1, 0}, {0, 1, 2, 3, 4}}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(12)
		ar := NewRecordArena(schema, n)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = randArenaRow(r)
			if err := ar.Append(rows[i]); err != nil {
				return false
			}
		}
		for _, proj := range projections {
			cols := make([]Column, len(proj))
			for i, p := range proj {
				cols[i] = schema.Column(p)
			}
			psch := MustSchema(cols...)
			dst := NewRecordArena(psch, n)
			if err := ar.ProjectTo(dst, proj); err != nil {
				t.Logf("seed %d proj %v: %v", seed, proj, err)
				return false
			}
			for i, row := range rows {
				prow := make(Row, len(proj))
				for c, p := range proj {
					prow[c] = row[p]
				}
				wantRec, err := EncodeRecord(psch, prow, nil)
				if err != nil {
					return false
				}
				wantKey, err := EncodeKey(psch, prow, nil)
				if err != nil {
					return false
				}
				if !bytes.Equal(dst.Rec(i), wantRec) || !bytes.Equal(dst.Key(i), wantKey) {
					t.Logf("seed %d proj %v row %d: projection drifted", seed, proj, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestArenaReservoirOps covers the in-place mutation primitives maintained
// samples use: SetRow, MoveRow, Truncate, AppendFrom, AppendGather.
func TestArenaReservoirOps(t *testing.T) {
	schema := arenaTestSchema()
	r := rng.New(99)
	ar := NewRecordArena(schema, 8)
	rows := make([]Row, 6)
	for i := range rows {
		rows[i] = randArenaRow(r)
		if err := ar.Append(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Replace slot 2 in place.
	repl := randArenaRow(r)
	if err := ar.SetRow(2, repl); err != nil {
		t.Fatal(err)
	}
	wantRec, _ := EncodeRecord(schema, repl, nil)
	wantKey, _ := EncodeKey(schema, repl, nil)
	if !bytes.Equal(ar.Rec(2), wantRec) || !bytes.Equal(ar.Key(2), wantKey) {
		t.Fatal("SetRow did not re-encode slot 2")
	}
	if err := ar.SetRow(17, repl); err == nil {
		t.Fatal("SetRow out of range succeeded")
	}
	// Swap-with-last delete of slot 1.
	ar.MoveRow(1, ar.Len()-1)
	ar.Truncate(ar.Len() - 1)
	if ar.Len() != 5 {
		t.Fatalf("Len after delete = %d, want 5", ar.Len())
	}
	lastRec, _ := EncodeRecord(schema, rows[5], nil)
	if !bytes.Equal(ar.Rec(1), lastRec) {
		t.Fatal("MoveRow did not move the last row into slot 1")
	}
	// Gather a subsample into a fresh arena.
	sub := NewRecordArena(schema, 2)
	if err := sub.AppendFrom(ar, []int64{4, 0}); err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 || !bytes.Equal(sub.Rec(1), ar.Rec(0)) || !bytes.Equal(sub.Key(0), ar.Key(4)) {
		t.Fatal("AppendFrom gathered wrong rows")
	}
	if err := sub.AppendFrom(ar, []int64{99}); err == nil {
		t.Fatal("AppendFrom out of range succeeded")
	}
	// Raw-record ingestion matches Append, and a bad index appends nothing.
	raw := NewRecordArena(schema, 1)
	if err := raw.AppendGather(ar.Recs(), []int64{3, 0}); err != nil {
		t.Fatal(err)
	}
	if raw.Len() != 2 || !bytes.Equal(raw.Key(0), ar.Key(3)) || !bytes.Equal(raw.Key(1), ar.Key(0)) {
		t.Fatal("AppendGather derived different keys")
	}
	if err := raw.AppendGather(ar.Recs(), []int64{1, 5}); err == nil || raw.Len() != 2 || len(raw.Recs()) != 2*ar.RowWidth() {
		t.Fatalf("AppendGather past the store: err %v, %d rows", err, raw.Len())
	}
	// Reset retains capacity and empties.
	raw.Reset()
	if raw.Len() != 0 || len(raw.Recs()) != 0 {
		t.Fatal("Reset did not empty the arena")
	}
}

// FuzzArenaRoundTrip fuzzes mixed-width schemas: any byte blob that decodes
// as a record under some schema must re-encode through the arena to the same
// bytes, with the arena key matching EncodeKey.
func FuzzArenaRoundTrip(f *testing.F) {
	// Schema shape is drawn from the first bytes of the seed: pairs of
	// (kind, width) nibbles.
	f.Add([]byte{0x13, 0x21, 0x30, 0x05, 'h', 'e', 'l', 'l', 'o', 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0x02, 0x40, 'a', 'b', 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nCols := int(data[0]%4) + 1
		if len(data) < 1+nCols {
			return
		}
		cols := make([]Column, nCols)
		names := []string{"a", "b", "c", "d"}
		for i := 0; i < nCols; i++ {
			sel := data[1+i]
			switch sel % 4 {
			case 0:
				cols[i] = Column{Name: names[i], Type: Char(int(sel/4%13) + 1)}
			case 1:
				cols[i] = Column{Name: names[i], Type: VarChar(int(sel/4%13) + 1)}
			case 2:
				cols[i] = Column{Name: names[i], Type: Int32()}
			default:
				cols[i] = Column{Name: names[i], Type: Int64()}
			}
		}
		schema, err := NewSchema(cols...)
		if err != nil {
			return
		}
		body := data[1+nCols:]
		if len(body) < schema.RowWidth() {
			return
		}
		rec := body[:schema.RowWidth()]
		row, err := DecodeRecord(schema, rec)
		if err != nil {
			return
		}
		// CHAR payloads with trailing pad bytes are normalized by decode;
		// only the decoded row is required to round-trip.
		ar := NewRecordArena(schema, 1)
		if err := ar.Append(row); err != nil {
			t.Fatalf("decoded row failed validation: %v", err)
		}
		wantRec, err := EncodeRecord(schema, row, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantKey, err := EncodeKey(schema, row, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ar.Rec(0), wantRec) {
			t.Fatalf("arena rec %x != EncodeRecord %x", ar.Rec(0), wantRec)
		}
		if !bytes.Equal(ar.Key(0), wantKey) {
			t.Fatalf("arena key %x != EncodeKey %x", ar.Key(0), wantKey)
		}
	})
}

// TestArenaGrowParallelFill pins the sharded bulk-ingestion pattern: an
// arena pre-grown to n rows and filled via SetRow from goroutines owning
// disjoint slot ranges must be byte-identical (records and keys) to one
// built by sequential Append of the same rows.
func TestArenaGrowParallelFill(t *testing.T) {
	schema := arenaTestSchema()
	r := rng.New(31)
	const n = 512
	rows := make([]Row, n)
	want := NewRecordArena(schema, n)
	for i := range rows {
		rows[i] = randArenaRow(r)
		if err := want.Append(rows[i]); err != nil {
			t.Fatal(err)
		}
	}

	got := NewRecordArena(schema, 0)
	got.Grow(n)
	if got.Len() != n {
		t.Fatalf("Len after Grow = %d, want %d", got.Len(), n)
	}
	const shards = 4
	chunk := n / shards
	done := make(chan error, shards)
	for s := 0; s < shards; s++ {
		go func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if err := got.SetRow(i, rows[i]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(s*chunk, (s+1)*chunk)
	}
	for s := 0; s < shards; s++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Recs(), want.Recs()) {
		t.Error("parallel-filled records differ from sequential Append")
	}
	if !bytes.Equal(got.Keys(), want.Keys()) {
		t.Error("parallel-filled keys differ from sequential Append")
	}
}

// TestArenaGrowEdges pins Grow's degenerate inputs.
func TestArenaGrowEdges(t *testing.T) {
	a := NewRecordArena(arenaTestSchema(), 0)
	a.Grow(0)
	a.Grow(-3)
	if a.Len() != 0 {
		t.Fatalf("Len after no-op Grow = %d, want 0", a.Len())
	}
}
