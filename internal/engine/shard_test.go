package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"samplecf/internal/db"
	"samplecf/internal/sampling"
	"samplecf/internal/value"
)

// liveShardedTable creates a db-backed table range-partitioned on seq into
// equal shards of width rowsPerShard, filled with n = shards·rowsPerShard
// rows (seq 0..n-1, so shard s owns seq [s·w, (s+1)·w)).
func liveShardedTable(t testing.TB, d *db.Database, name string, shards, rowsPerShard int) *db.ShardedTable {
	t.Helper()
	schema, err := value.NewSchema(
		value.Column{Name: "city", Type: value.Char(16)},
		value.Column{Name: "seq", Type: value.Int32()},
	)
	if err != nil {
		t.Fatal(err)
	}
	bounds := make([][]byte, shards-1)
	for i := range bounds {
		bounds[i] = value.IntValue(int32((i + 1) * rowsPerShard))
	}
	st, err := d.CreateShardedTable(name, schema, db.ShardSpec{
		Shards: shards, Column: "seq", By: db.ShardByRange, Bounds: bounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards*rowsPerShard; i++ {
		_, err := st.Insert(value.Row{
			value.StringValue(fmt.Sprintf("city-%02d", i%64)),
			value.IntValue(int32(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestAllocateRows pins the row allocation the scatter planner uses
// (sampling.Allocate with no scores): proportionality, exact total, the
// one-row floor for non-empty shards, empty shards get nothing, and the
// single-shard identity.
func TestAllocateRows(t *testing.T) {
	got := sampling.Allocate(100, []int64{300, 100, 0, 600}, nil)
	if got[2] != 0 {
		t.Errorf("empty shard allocated %d rows", got[2])
	}
	if got[0] != 30 || got[1] != 10 || got[3] != 60 {
		t.Errorf("allocation %v, want [30 10 0 60]", got)
	}
	// Remainders distribute to the largest fractional parts and the total
	// is exact when r >= non-empty shards.
	got = sampling.Allocate(10, []int64{1, 1, 1}, nil)
	if got[0]+got[1]+got[2] != 10 {
		t.Errorf("allocation %v does not sum to 10", got)
	}
	// One-row floor: more shards than rows overshoots rather than leaving
	// a stratum uncovered.
	got = sampling.Allocate(2, []int64{10, 10, 10, 10}, nil)
	for h, r := range got {
		if r < 1 {
			t.Errorf("shard %d allocated %d rows; floor is 1", h, r)
		}
	}
	// Single shard takes everything.
	got = sampling.Allocate(500, []int64{999}, nil)
	if got[0] != 500 {
		t.Errorf("single shard allocated %d, want 500", got[0])
	}
}

// TestScatterMatchesUnsharded checks the scatter path end to end: a
// single-shard table must answer byte-identically to a plain table holding
// the same rows (shard 0 keeps the request seed), and a multi-shard
// estimate must agree on the invariants (sample size, profile totals).
func TestScatterMatchesUnsharded(t *testing.T) {
	d := db.New(0)
	plain := liveTable(t, d, "plain", 3000)
	single := liveShardedTable(t, d, "single", 1, 3000)
	e := New(Config{Workers: 2})
	defer e.Close()
	codec := mustCodec(t)

	req := Request{Codec: codec, KeyColumns: []string{"city"}, SampleRows: 400, Seed: 99, FreshSample: true}
	reqPlain, reqSingle := req, req
	reqPlain.Table = plain
	reqSingle.Table = single
	rp := e.Estimate(context.Background(), reqPlain)
	rs := e.Estimate(context.Background(), reqSingle)
	if rp.Err != nil || rs.Err != nil {
		t.Fatalf("errs: %v / %v", rp.Err, rs.Err)
	}
	if rp.Estimate.CF != rs.Estimate.CF ||
		rp.Estimate.Result.CompressedBytes != rs.Estimate.Result.CompressedBytes ||
		rp.Estimate.Result.UncompressedBytes != rs.Estimate.Result.UncompressedBytes ||
		rp.Estimate.SampleRows != rs.Estimate.SampleRows ||
		rp.Estimate.SampleDistinct != rs.Estimate.SampleDistinct {
		t.Errorf("single-shard diverges from unsharded: %+v vs %+v", rs.Estimate, rp.Estimate)
	}

	multi := liveShardedTable(t, d, "multi", 3, 1000)
	reqMulti := req
	reqMulti.Table = multi
	rm := e.Estimate(context.Background(), reqMulti)
	if rm.Err != nil {
		t.Fatal(rm.Err)
	}
	if rm.Estimate.SampleRows != 400 {
		t.Errorf("scattered sample totals %d rows, want 400", rm.Estimate.SampleRows)
	}
	if rm.Estimate.Profile.R != 400 {
		t.Errorf("merged profile R = %d, want 400", rm.Estimate.Profile.R)
	}
	if rm.Estimate.CF <= 0 || rm.Estimate.CF > 1 {
		t.Errorf("merged CF %v outside (0,1]", rm.Estimate.CF)
	}
	var fsum int64
	for _, v := range rm.Estimate.Profile.F {
		fsum += v
	}
	if fsum != rm.Estimate.Profile.D {
		t.Errorf("merged profile: sum F = %d, D = %d", fsum, rm.Estimate.Profile.D)
	}
}

// TestHotShardCacheHit is the tentpole regression: after one shard
// mutates, a repeated fixed-r request re-evaluates ONLY that shard — the
// untouched shards' per-shard cache entries keep serving, so exactly one
// new sample draw happens. (The request pins SampleRows and FreshSample:
// fixed r keeps the per-shard keys request-level, fresh draws make the
// draw counter an exact re-evaluation ledger.)
func TestHotShardCacheHit(t *testing.T) {
	d := db.New(0)
	st := liveShardedTable(t, d, "t", 3, 1000)
	e := New(Config{Workers: 2, CacheEntries: 64})
	defer e.Close()
	req := Request{Table: st, Codec: mustCodec(t), KeyColumns: []string{"city"},
		SampleRows: 300, Seed: 7, FreshSample: true}

	r0 := e.Estimate(context.Background(), req)
	if r0.Err != nil {
		t.Fatal(r0.Err)
	}
	s0 := e.Stats()
	if s0.ShardScatters != 1 || s0.ShardCacheMisses != 3 || s0.SamplesDrawn != 3 {
		t.Fatalf("cold scatter: %+v", s0)
	}

	// Warm repeat: every shard hits, the whole request is a cache hit.
	r1 := e.Estimate(context.Background(), req)
	if r1.Err != nil || !r1.CacheHit {
		t.Fatalf("warm repeat not a cache hit: %+v", r1)
	}
	if r1.Estimate.CF != r0.Estimate.CF {
		t.Errorf("cached CF %v != computed %v", r1.Estimate.CF, r0.Estimate.CF)
	}
	s1 := e.Stats()
	if s1.ShardCacheHits != 3 || s1.SamplesDrawn != 3 {
		t.Fatalf("warm scatter drew samples: %+v", s1)
	}

	// Mutate shard 0 only (seq 0 routes below the first bound).
	if _, err := st.Insert(value.Row{value.StringValue("city-xx"), value.IntValue(0)}); err != nil {
		t.Fatal(err)
	}
	r2 := e.Estimate(context.Background(), req)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if r2.CacheHit {
		t.Error("request after mutation must not be a full cache hit")
	}
	s2 := e.Stats()
	if hits := s2.ShardCacheHits - s1.ShardCacheHits; hits != 2 {
		t.Errorf("untouched shards served %d hits, want 2", hits)
	}
	if misses := s2.ShardCacheMisses - s1.ShardCacheMisses; misses != 1 {
		t.Errorf("hot shard missed %d times, want 1", misses)
	}
	if drawn := s2.SamplesDrawn - s1.SamplesDrawn; drawn != 1 {
		t.Errorf("re-evaluation drew %d samples, want exactly 1 (the hot shard)", drawn)
	}
}

// TestShardedAdaptive checks the stratified adaptive loop: convergence to
// the target, a sane interval, and precision-cache dominance on repeat.
func TestShardedAdaptive(t *testing.T) {
	d := db.New(0)
	st := liveShardedTable(t, d, "t", 3, 1000)
	e := New(Config{Workers: 2})
	defer e.Close()
	req := Request{Table: st, Codec: mustCodec(t), KeyColumns: []string{"city"},
		Seed: 11, TargetError: 0.04}

	r := e.Estimate(context.Background(), req)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !r.Converged {
		t.Fatalf("sharded adaptive did not converge: %+v", r)
	}
	if r.AchievedError > 0.04 || r.AchievedError <= 0 {
		t.Errorf("achieved error %v outside (0, 0.04]", r.AchievedError)
	}
	if r.Estimate.CF <= 0 || r.Estimate.CF > 1 {
		t.Errorf("CF %v outside (0,1]", r.Estimate.CF)
	}
	if r.Rounds < 1 {
		t.Errorf("rounds = %d", r.Rounds)
	}

	// A looser ask at the same epoch vector is answered by dominance.
	loose := req
	loose.TargetError = 0.1
	r2 := e.Estimate(context.Background(), loose)
	if r2.Err != nil || !r2.CacheHit {
		t.Fatalf("dominance repeat not a hit: %+v", r2)
	}
	if e.Stats().PrecisionHits != 1 {
		t.Errorf("precision hits = %d, want 1", e.Stats().PrecisionHits)
	}

	// Any mutation invalidates the whole-table adaptive entry (the epoch
	// vector changed), unlike the per-shard fixed-r cache.
	if _, err := st.Insert(value.Row{value.StringValue("c"), value.IntValue(0)}); err != nil {
		t.Fatal(err)
	}
	r3 := e.Estimate(context.Background(), loose)
	if r3.Err != nil {
		t.Fatal(r3.Err)
	}
	if r3.CacheHit {
		t.Error("adaptive entry survived a mutation")
	}
}

// TestShardRace exercises concurrent per-shard inserts against cross-shard
// scattered estimates under the race detector: shard-local locking means
// writers to different shards never serialize against each other, and
// readers see internally-consistent shards.
func TestShardRace(t *testing.T) {
	d := db.New(0)
	shards, perShard := 4, 500
	st := liveShardedTable(t, d, "t", shards, perShard)
	e := New(Config{Workers: 4, CacheEntries: 64})
	defer e.Close()
	codec := mustCodec(t)

	var wg sync.WaitGroup
	// One writer per shard, each inserting into its own seq range.
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			base := int32(s * perShard)
			for i := 0; i < 50; i++ {
				_, err := st.Insert(value.Row{
					value.StringValue(fmt.Sprintf("w%d-%d", s, i)),
					value.IntValue(base),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	// Concurrent scattered estimates across all shards.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r := e.Estimate(context.Background(), Request{
					Table: st, Codec: codec, KeyColumns: []string{"city"},
					SampleRows: 200, Seed: uint64(g*100 + i), FreshSample: true,
				})
				if r.Err != nil {
					t.Errorf("estimate: %v", r.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := st.NumRows(); got != int64(shards*perShard+shards*50) {
		t.Errorf("NumRows = %d after concurrent inserts", got)
	}
}
