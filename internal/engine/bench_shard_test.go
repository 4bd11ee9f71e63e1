package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"samplecf/internal/core"
	"samplecf/internal/db"
	"samplecf/internal/value"
)

// BenchmarkShardedWhatIf measures a scattered fixed-r estimate over the
// same 80k rows partitioned 1/2/4/8 ways, cache disabled and seeds varied
// so every iteration honestly re-draws, re-sorts, and re-compresses its
// per-shard samples before merging. The per-shard work shrinks with the
// fan-out (r/shards rows each) while the scatter adds coordination; on a
// multi-core box the shards also overlap. (This box runs GOMAXPROCS=1, so
// the recorded numbers show scatter overhead without parallel speedup.)
func BenchmarkShardedWhatIf(b *testing.B) {
	const totalRows = 80_000
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d := db.New(0)
			st := liveShardedTable(b, d, fmt.Sprintf("b%d", shards), shards, totalRows/shards)
			e := New(Config{Workers: 4, CacheEntries: -1})
			defer e.Close()
			codec := mustCodec(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := e.Estimate(context.Background(), Request{
					Table: st, KeyColumns: []string{"city"}, Codec: codec,
					SampleRows: 4000, Seed: uint64(i + 1), FreshSample: true,
				})
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

// BenchmarkHotShardCacheHit is the economics the per-shard cache exists
// for: each iteration mutates one hot shard and repeats a fixed request.
// Unsharded, the single epoch key invalidates everything and the engine
// redraws the full sample; sharded, the three untouched shards keep
// serving their cached estimates and only the hot shard's quarter of the
// sample is re-drawn. The gap is the cost of churn localized vs. global.
func BenchmarkHotShardCacheHit(b *testing.B) {
	const shards, perShard = 4, 25_000
	hotRow := value.Row{value.StringValue("hot"), value.IntValue(0)}
	req := func(t Table) Request {
		return Request{Table: t, KeyColumns: []string{"city"}, Codec: mustCodec(b),
			SampleRows: 2000, Seed: 5, FreshSample: true}
	}

	b.Run("unsharded", func(b *testing.B) {
		d := db.New(0)
		tab := liveTable(b, d, "u", shards*perShard)
		e := New(Config{Workers: 4, CacheEntries: 64})
		defer e.Close()
		r := req(tab)
		if res := e.Estimate(context.Background(), r); res.Err != nil {
			b.Fatal(res.Err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tab.Insert(hotRow); err != nil {
				b.Fatal(err)
			}
			res := e.Estimate(context.Background(), r)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			if res.CacheHit {
				b.Fatal("mutated table served a stale cache hit")
			}
		}
	})
	b.Run("sharded-4", func(b *testing.B) {
		d := db.New(0)
		st := liveShardedTable(b, d, "s", shards, perShard)
		e := New(Config{Workers: 4, CacheEntries: 64})
		defer e.Close()
		r := req(st)
		if res := e.Estimate(context.Background(), r); res.Err != nil {
			b.Fatal(res.Err)
		}
		before := e.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Insert(hotRow); err != nil {
				b.Fatal(err)
			}
			res := e.Estimate(context.Background(), r)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
		b.StopTimer()
		after := e.Stats()
		// The acceptance property: every iteration re-drew exactly one
		// shard while the other three served from cache.
		if drawn := after.SamplesDrawn - before.SamplesDrawn; drawn != uint64(b.N) {
			b.Fatalf("drew %d samples over %d iterations, want one per iteration", drawn, b.N)
		}
		if hits := after.ShardCacheHits - before.ShardCacheHits; hits != uint64(3*b.N) {
			b.Fatalf("untouched shards served %d hits over %d iterations, want 3 per iteration", hits, b.N)
		}
	})
}

// BenchmarkShardedAdaptive measures the adaptive loop over shard arms: a
// ±2% rle ask (Strata 0) on a 4-shard table whose shards differ in
// compressibility. The key is benchZipfTable's zipf-skewed, bimodal-length
// column, inserted in key order and range-partitioned on the insert
// sequence, so the head values' long runs land in shard 0 and the tail in
// shard 3. Round 0 is a 64-row proportional pilot, so the rows after it
// are the extension policy's. It reports rows drawn per estimate, err_pts
// = 100·|CF' − CF| against the exact CF, and rounds per estimate. Caches
// are off and seeds vary, so every iteration re-spends its rows.
func BenchmarkShardedAdaptive(b *testing.B) {
	const shards, n = 4, 100_000
	const requirement = 0.02
	src := benchZipfTable(b, n)
	var keys [][]byte
	if err := src.Scan(func(_ int64, row value.Row) error {
		keys = append(keys, append([]byte(nil), row[0]...))
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	schema, err := value.NewSchema(
		value.Column{Name: "a", Type: value.Char(64)},
		value.Column{Name: "seq", Type: value.Int32()},
	)
	if err != nil {
		b.Fatal(err)
	}
	bounds := make([][]byte, shards-1)
	for i := range bounds {
		bounds[i] = value.IntValue(int32((i + 1) * n / shards))
	}
	st, err := db.New(0).CreateShardedTable("sharded-adaptive", schema, db.ShardSpec{
		Shards: shards, Column: "seq", By: db.ShardByRange, Bounds: bounds,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i, k := range keys {
		if _, err := st.Insert(value.Row{k, value.IntValue(int32(i))}); err != nil {
			b.Fatal(err)
		}
	}
	truth, err := core.TrueCF(st, []string{"a"}, codec(b, "rle"), 0)
	if err != nil {
		b.Fatal(err)
	}
	e := New(Config{CacheEntries: -1})
	defer e.Close()
	var rows, errPts, rounds float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Estimate(context.Background(), Request{
			Table: st, KeyColumns: []string{"a"}, Codec: codec(b, "rle"),
			TargetError: requirement, Seed: uint64(i),
			SampleRows: 64, // round-0 seed, small enough that the loop has to extend
		})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		rows += float64(res.Estimate.SampleRows)
		errPts += 100 * math.Abs(res.Estimate.CF-truth.CF())
		rounds += float64(res.Rounds)
	}
	b.ReportMetric(rows/float64(b.N), "rows/est")
	b.ReportMetric(errPts/float64(b.N), "err_pts")
	b.ReportMetric(rounds/float64(b.N), "rounds/est")
}

// BenchmarkStratifiedAfterInsert is a live table's stratified ask under
// churn: each iteration inserts 16 rows into shard 0 of a 4-shard,
// 200k-row table, then asks a Strata 8, ±5% rle estimate. The write moves
// shard 0's epoch, so the ask weighs shard 0's strata again while the
// other shards' partitions stay resident; rows_drawn/op counts every row
// the ask drew from storage (pilots and routed streams).
func BenchmarkStratifiedAfterInsert(b *testing.B) {
	const shards, perShard = 4, 50_000
	st := liveShardedTable(b, db.New(0), "strat-churn", shards, perShard)
	e := New(Config{Workers: 2})
	defer e.Close()
	ask := func(seed uint64) {
		res := e.Estimate(context.Background(), Request{
			Table: st, KeyColumns: []string{"city"}, Codec: codec(b, "rle"),
			TargetError: 0.05, Strata: 8, Seed: seed,
		})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
	ask(math.MaxUint64) // cut every shard once, outside the timer
	drawnBefore := rowsDrawn(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			row := value.Row{value.StringValue("city-hot"), value.IntValue(int32((i*16 + j) % perShard))}
			if _, err := st.Insert(row); err != nil {
				b.Fatal(err)
			}
		}
		ask(uint64(i))
	}
	b.ReportMetric((rowsDrawn(b)-drawnBefore)/float64(b.N), "rows_drawn/op")
}
