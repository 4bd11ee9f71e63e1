package sampling

import (
	"testing"

	"samplecf/internal/stats"
	"samplecf/internal/value"
)

// rowOf builds a one-column row whose payload encodes id.
func rowOf(id uint64) value.Row {
	return value.Row{value.Int64Value(int64(id))}
}

// backingSchema is the one-column schema the backing tests reservoir rows
// under.
var backingSchema = value.MustSchema(value.Column{Name: "id", Type: value.Int64()})

func TestBackingFillThenReservoir(t *testing.T) {
	b, err := NewBacking(backingSchema, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		b.Insert(i, rowOf(i))
	}
	if b.Size() != 5 {
		t.Fatalf("size after underfill = %d, want 5", b.Size())
	}
	for i := uint64(5); i < 1000; i++ {
		b.Insert(i, rowOf(i))
	}
	if b.Size() != 8 {
		t.Fatalf("size after 1000 inserts = %d, want target 8", b.Size())
	}
	st := b.Stats()
	if st.Inserted != 1000 || st.Target != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBackingNewBackingRejectsBadTarget(t *testing.T) {
	if _, err := NewBacking(backingSchema, 0, 1); err == nil {
		t.Fatal("target 0 accepted")
	}
	if _, err := NewBacking(backingSchema, -3, 1); err == nil {
		t.Fatal("negative target accepted")
	}
}

func TestBackingDeleteIsExact(t *testing.T) {
	b, err := NewBacking(backingSchema, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		b.Insert(i, rowOf(i))
	}
	b.Delete(3)
	if b.Size() != 9 {
		t.Fatalf("size after sampled delete = %d, want 9", b.Size())
	}
	for _, row := range b.Rows() {
		if string(row[0]) == string(value.Int64Value(3)) {
			t.Fatal("deleted row still in reservoir")
		}
	}
	b.Delete(999) // never inserted: counted, no effect
	if b.Size() != 9 {
		t.Fatalf("size after unsampled delete = %d, want 9", b.Size())
	}
	st := b.Stats()
	if st.Deleted != 2 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBackingReusedKeyReplacesInPlace(t *testing.T) {
	b, err := NewBacking(backingSchema, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Insert(1, rowOf(10))
	b.Insert(1, rowOf(20))
	if b.Size() != 1 {
		t.Fatalf("size = %d, want 1", b.Size())
	}
	if got := b.Rows()[0]; string(got[0]) != string(value.Int64Value(20)) {
		t.Fatalf("row = %v, want replacement", got)
	}
}

func TestBackingStalenessPolicy(t *testing.T) {
	b, err := NewBacking(backingSchema, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		b.Insert(i, rowOf(i))
	}
	if b.Stale(100) {
		t.Fatal("full reservoir reported stale")
	}
	// Erode below target/2 by deleting sampled rows.
	deleted := 0
	for i := uint64(0); i < 100 && b.Size() > 3; i++ {
		before := b.Size()
		b.Delete(i)
		if b.Size() < before {
			deleted++
		}
	}
	if b.Size() >= 8 {
		t.Fatalf("erosion failed, size %d", b.Size())
	}
	if !b.Stale(100 - int64(deleted)) {
		t.Fatal("eroded reservoir not reported stale")
	}
	// A tiny table can never fill target/2; it is not stale.
	if b.Stale(int64(b.Size())) {
		t.Fatal("reservoir covering the whole tiny table reported stale")
	}
	// Rebuild: reset + rescan clears staleness.
	b.Reset(4)
	for i := uint64(200); i < 300; i++ {
		b.Insert(i, rowOf(i))
	}
	if b.Stale(100) {
		t.Fatal("rebuilt reservoir reported stale")
	}
	if st := b.Stats(); st.Deleted != 0 || st.Inserted != 100 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

// TestBackingUniformityChiSquared is the property test: across a mutation
// stream of interleaved inserts and deletes, every live row must be
// equally likely to appear in the maintained sample. Membership counts
// over many independent seeds are tested against the uniform expectation
// with Pearson's chi-squared (via internal/stats).
func TestBackingUniformityChiSquared(t *testing.T) {
	const (
		target = 16
		trials = 4000
	)
	// Mutation stream: insert 0..99, delete every third of them, then
	// insert 100..149. Live set: the 120 surviving ids.
	live := make(map[uint64]int) // id → chi-squared cell
	cell := 0
	for i := uint64(0); i < 100; i++ {
		if i%3 != 0 {
			live[i] = cell
			cell++
		}
	}
	for i := uint64(100); i < 150; i++ {
		live[i] = cell
		cell++
	}

	counts := make([]int64, cell)
	var totalSize int64
	for trial := 0; trial < trials; trial++ {
		b, err := NewBacking(backingSchema, target, uint64(trial)+1)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 100; i++ {
			b.Insert(i, rowOf(i))
		}
		for i := uint64(0); i < 100; i += 3 {
			b.Delete(i)
		}
		for i := uint64(100); i < 150; i++ {
			b.Insert(i, rowOf(i))
		}
		for _, row := range b.Rows() {
			id := uint64(value.DecodeInt64(row[0]))
			c, ok := live[id]
			if !ok {
				t.Fatalf("trial %d: deleted or unknown id %d in sample", trial, id)
			}
			counts[c]++
			totalSize++
		}
	}

	// Every live row should hold an equal share of the total inclusions.
	expected := make([]float64, len(counts))
	for i := range expected {
		expected[i] = float64(totalSize) / float64(len(counts))
	}
	x2 := stats.ChiSquared(counts, expected)
	df := len(counts) - 1
	p := stats.ChiSquaredPValue(x2, df)
	if p < 1e-3 {
		t.Fatalf("maintained sample not uniform: X² = %.1f (df %d), p = %g", x2, df, p)
	}
}

// arenaBytes copies an arena's record and key bytes.
func arenaBytes(ar *value.RecordArena) string {
	return string(ar.Recs()) + "|" + string(ar.Keys())
}

// TestBackingSnapshotShared pins SnapshotArena's sharing contract: calls
// with only rejected inserts (or deletes of unsampled rows) between them
// return the same arena; an accepted insert, an in-place replace, a
// delete of a sampled row and Reset each make the next call return a new
// one; and an arena handed out before churn is byte-identical after it.
func TestBackingSnapshotShared(t *testing.T) {
	b, err := NewBacking(backingSchema, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		if err := b.Insert(i, rowOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	first := b.SnapshotArena()
	frozen := arenaBytes(first)
	if b.SnapshotArena() != first {
		t.Fatal("two reads with no change between them returned different arenas")
	}

	var rejected, accepted int
	for i := uint64(32); i < 2000; i++ {
		prev := b.SnapshotArena()
		if err := b.Insert(i, rowOf(i)); err != nil {
			t.Fatal(err)
		}
		_, in := b.pos[i]
		switch got := b.SnapshotArena(); {
		case in && got == prev:
			t.Fatalf("insert %d entered the reservoir but the snapshot was not renewed", i)
		case !in && got != prev:
			t.Fatalf("insert %d was rejected but the snapshot was renewed", i)
		case in:
			accepted++
		default:
			rejected++
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("churn saw %d rejected and %d accepted inserts; the test needs both", rejected, accepted)
	}

	sampled := b.keys[0]
	prev := b.SnapshotArena()
	if err := b.Insert(sampled, rowOf(9_999)); err != nil { // reused key: in-place replace
		t.Fatal(err)
	}
	if b.SnapshotArena() == prev {
		t.Error("an in-place replace kept the old snapshot")
	}
	prev = b.SnapshotArena()
	b.Delete(1_000_000) // never inserted: the reservoir does not change
	if b.SnapshotArena() != prev {
		t.Error("a delete of an unsampled row renewed the snapshot")
	}
	b.Delete(sampled)
	if b.SnapshotArena() == prev {
		t.Error("a delete of a sampled row kept the old snapshot")
	}
	prev = b.SnapshotArena()
	b.Reset(6)
	if got := b.SnapshotArena(); got == prev || got.Len() != 0 {
		t.Errorf("Reset kept the old snapshot (%d rows)", got.Len())
	}
	if arenaBytes(first) != frozen {
		t.Error("an arena handed out before churn changed under it")
	}
}

// TestBackingSnapshotSharedConcurrent reads shared snapshots while other
// goroutines insert and delete; under -race it checks that no write
// reaches an arena a reader holds.
func TestBackingSnapshotSharedConcurrent(t *testing.T) {
	b, err := NewBacking(backingSchema, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 2, 2000
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w uint64) {
			defer func() { done <- struct{}{} }()
			for i := uint64(0); i < perWriter; i++ {
				key := w*perWriter + i
				if err := b.Insert(key, rowOf(key)); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					b.Delete(key - i/2)
				}
			}
		}(uint64(w))
	}
	readers := make(chan struct{})
	for r := 0; r < 2; r++ {
		go func() {
			defer func() { readers <- struct{}{} }()
			for i := 0; i < 500; i++ {
				snap := b.SnapshotArena()
				before := arenaBytes(snap)
				own := value.NewRecordArena(backingSchema, snap.Len())
				if err := own.AppendAll(snap); err != nil {
					t.Error(err)
					return
				}
				if arenaBytes(snap) != before || arenaBytes(own) != before {
					t.Error("a shared snapshot changed while it was read")
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	for r := 0; r < 2; r++ {
		<-readers
	}
}
