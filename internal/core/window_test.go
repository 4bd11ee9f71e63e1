package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"samplecf/internal/compress"
	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// windowSample draws a duplicate-heavy sample over CHAR, INT32 and INT64
// columns, negative integers included, so key windows cover sign-flipped
// bytes at every position of a row.
func windowSample(t *testing.T, r int, seed uint64) (*value.Schema, []value.Row, *value.RecordArena) {
	t.Helper()
	schema := value.MustSchema(
		value.Column{Name: "a", Type: value.Char(6)},
		value.Column{Name: "b", Type: value.Int32()},
		value.Column{Name: "c", Type: value.Int64()},
		value.Column{Name: "d", Type: value.Char(5)},
	)
	g := rng.New(seed)
	rows := make([]value.Row, r)
	ar := value.NewRecordArena(schema, r)
	for i := range rows {
		rows[i] = value.Row{
			[]byte(fmt.Sprintf("k%d", g.Intn(7))),
			value.IntValue(int32(g.Intn(9) - 4)),
			value.Int64Value(int64(g.Intn(5)-2) << 40),
			[]byte("xyz"[:1+g.Intn(3)]),
		}
		if err := ar.Append(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	return schema, rows, ar
}

// sortedKeys lists a prepared index's keys in sorted order.
func sortedKeys(p *PreparedIndex) [][]byte {
	out := make([][]byte, len(p.perm))
	for i, pi := range p.perm {
		out[i] = p.win.Key(int(pi))
	}
	return out
}

// TestWindowedPrepareMatchesProjection is the property that lets an index
// be a window over the sample arena and a key chain share one sort: for
// windowed column sets (adjacent, in schema order), projected ones, and
// chain members derived by Prefix from every wider run at the same
// offset, the sorted key sequence, the profile and every registered
// codec's Estimate equal those of the row path, which encodes each
// sampled row's key columns into an arena of their own and sorts it.
func TestWindowedPrepareMatchesProjection(t *testing.T) {
	schema, rows, sample := windowSample(t, 1500, 3)
	const n = 1_000_000
	colsets := [][]string{
		{"a"}, {"a", "b"}, {"a", "b", "c"}, nil, {"b"}, {"b", "c"}, {"b", "c", "d"},
		{"c"}, {"c", "d"}, {"d"}, // windows
		{"d", "a"}, {"a", "c"}, {"c", "b"}, {"b", "a", "c"}, // projections
	}
	var codecs []compress.Codec
	for _, name := range compress.Names() {
		c, err := compress.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		codecs = append(codecs, c)
	}

	check := func(what string, got, want *PreparedIndex) {
		t.Helper()
		if !reflect.DeepEqual(sortedKeys(got), sortedKeys(want)) {
			t.Fatalf("%s: sorted key sequence differs from the row path", what)
		}
		if !reflect.DeepEqual(got.freqs, want.freqs) {
			t.Fatalf("%s: profile %v, row path %v", what, got.freqs, want.freqs)
		}
		for _, c := range codecs {
			g, err := got.Estimate(Options{Codec: c, PageSize: 512})
			if err != nil {
				t.Fatalf("%s %s: %v", what, c.Name(), err)
			}
			w, err := want.Estimate(Options{Codec: c, PageSize: 512})
			if err != nil {
				t.Fatalf("%s %s (row path): %v", what, c.Name(), err)
			}
			if g.CF != w.CF || !reflect.DeepEqual(g.Result, w.Result) || !reflect.DeepEqual(g.Profile, w.Profile) {
				t.Fatalf("%s %s: estimate %+v, row path %+v", what, c.Name(), g.Result, w.Result)
			}
		}
		// The literal index build reads records and keys through the
		// window too.
		g, err := got.Estimate(Options{Codec: codecs[0], PageSize: 512, BuildIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Estimate(Options{Codec: codecs[0], PageSize: 512, BuildIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		if g.CF != w.CF {
			t.Fatalf("%s: built-index CF %v, row path %v", what, g.CF, w.CF)
		}
	}

	prepared := make(map[string]*PreparedIndex)
	for _, cols := range colsets {
		want, err := PrepareIndex(rows, n, schema, cols)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PrepareFromArena(sample, n, cols)
		if err != nil {
			t.Fatal(err)
		}
		_, _, windowed := KeyRun(schema, cols)
		if windowed == got.owned {
			t.Fatalf("%v: owned=%v, but KeyRun reports a run=%v", cols, got.owned, windowed)
		}
		if windowed && got.win.Arena() != sample {
			t.Fatalf("%v: a run of sample columns was copied", cols)
		}
		check(fmt.Sprintf("%v", cols), got, want)
		prepared[fmt.Sprint(cols)] = got
	}

	// Chains: every windowed set as a Prefix of every wider run at the
	// same offset.
	chains := 0
	for _, member := range colsets {
		mOff, mW, ok := KeyRun(schema, member)
		if !ok {
			continue
		}
		want := prepared[fmt.Sprint(member)]
		for _, root := range colsets {
			rOff, rW, ok := KeyRun(schema, root)
			if !ok || rOff != mOff || rW < mW {
				continue
			}
			view, err := prepared[fmt.Sprint(root)].Prefix(member)
			if member == nil {
				// Empty means all table columns; against a narrower root's
				// key schema it names the root's own columns.
				view, err = prepared[fmt.Sprint(root)].Prefix(root)
			}
			if err != nil {
				t.Fatalf("%v of %v: %v", member, root, err)
			}
			if len(view.perm) > 0 && &view.perm[0] != &prepared[fmt.Sprint(root)].perm[0] {
				t.Fatalf("%v of %v: the chain member does not share its root's sort", member, root)
			}
			check(fmt.Sprintf("%v of %v", member, root), view, want)
			chains++
		}
	}
	if chains < 20 {
		t.Fatalf("only %d chain pairs checked", chains)
	}

	// A key that is not a leading run of the root is refused.
	root := prepared[fmt.Sprint([]string{"a", "b", "c"})]
	for _, bad := range [][]string{{"b"}, {"a", "c"}, {"d"}} {
		if _, err := root.Prefix(bad); err == nil {
			t.Errorf("Prefix(%v) of (a, b, c) succeeded", bad)
		}
	}
}

// TestWindowExtendCopiesSample checks that extending a windowed prepared
// index copies its window out first: the sample arena it shared is never
// written, and the extended index equals one prepared from the projected
// rows of both batches.
func TestWindowExtendCopiesSample(t *testing.T) {
	schema, rows, sample := windowSample(t, 400, 5)
	_, more, extra := windowSample(t, 300, 6)
	before := bytes.Clone(sample.Recs())
	cols := []string{"b", "c"}
	p, err := PrepareFromArena(sample, 1000, cols)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := ProjectSample(extra, cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ExtendFromArena(proj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sample.Recs(), before) || sample.Len() != 400 {
		t.Fatal("extension wrote to the shared sample arena")
	}
	want, err := PrepareIndex(append(append([]value.Row(nil), rows...), more...), 1000, schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedKeys(p), sortedKeys(want)) || !reflect.DeepEqual(p.freqs, want.freqs) {
		t.Fatal("extended window differs from the projected rows of both batches")
	}
}
