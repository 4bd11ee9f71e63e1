package main

import (
	"fmt"
	"strconv"
	"strings"

	"samplecf/internal/db"
	"samplecf/internal/distrib"
	"samplecf/internal/value"
	"samplecf/internal/workload"
)

// colSpec and tableSpec are the POST /tables wire form (docs/cfserve.md).
type colSpec struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Dist string `json:"dist"`
	Len  string `json:"len,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
}

type tableSpec struct {
	Name        string    `json:"name"`
	N           int64     `json:"n"`
	Seed        uint64    `json:"seed"`
	Live        bool      `json:"live,omitempty"`
	Shards      int       `json:"shards,omitempty"`
	ShardBy     string    `json:"shard_by,omitempty"`
	ShardColumn string    `json:"shard_column,omitempty"`
	ShardBounds []int32   `json:"shard_bounds,omitempty"`
	Cols        []colSpec `json:"cols"`
}

// orderCols is the column set of both benchmark tables. Character columns
// need a length distribution; region and product use the lengths of the
// cfserve demo table.
var orderCols = []colSpec{
	{Name: "region", Type: "char:24", Dist: "uniform:50", Len: "uniform:4:12", Seed: 1},
	{Name: "product", Type: "char:40", Dist: "zipf:8000:0.7", Len: "uniform:10:30", Seed: 2},
	{Name: "customer", Type: "char:32", Dist: "zipf:200000:0.9", Len: "bimodal:6:28:0.7", Seed: 3},
	{Name: "qty", Type: "int32", Dist: "uniform:500"},
}

// shard0Bound is the exclusive upper qty bound of orders_live's shard 0.
const shard0Bound = 125

var (
	ordersSpec = tableSpec{Name: "orders", N: 1_000_000, Seed: 7, Cols: orderCols}
	liveSpec   = tableSpec{
		Name: "orders_live", N: 200_000, Seed: 8, Live: true,
		Shards: 4, ShardBy: db.ShardByRange, ShardColumn: "qty",
		ShardBounds: []int32{shard0Bound, 250, 375},
		Cols:        orderCols,
	}
)

// columnSets are the index key column sequences the advisor workloads size.
var columnSets = [][]string{
	{"region"},
	{"product"},
	{"customer"},
	{"region", "product"},
	{"customer", "qty"},
}

// workloadSpec resolves a wire spec into the workload generator spec the
// server builds from, so in-process copies hold exactly the server's rows.
// It covers the subset of the spec vocabulary the benchmark tables use.
func workloadSpec(ts tableSpec) (workload.Spec, error) {
	cols := make([]workload.SpecColumn, len(ts.Cols))
	for i, c := range ts.Cols {
		gen, err := columnGen(c)
		if err != nil {
			return workload.Spec{}, fmt.Errorf("table %s, column %s: %w", ts.Name, c.Name, err)
		}
		cols[i] = workload.SpecColumn{Name: c.Name, Gen: gen}
	}
	return workload.Spec{Name: ts.Name, N: ts.N, Seed: ts.Seed, Cols: cols}, nil
}

func columnGen(c colSpec) (workload.ColumnGen, error) {
	dist, err := parseDist(c.Dist)
	if err != nil {
		return nil, err
	}
	kind, args := splitSpec(c.Type)
	switch kind {
	case "int32":
		return workload.NewIntColumn(value.Int32(), dist, 0)
	case "char":
		k, err := ints(args, 1)
		if err != nil {
			return nil, err
		}
		lens, err := parseLen(c.Len)
		if err != nil {
			return nil, err
		}
		return workload.NewStringColumn(value.Char(int(k[0])), dist, lens, c.Seed)
	}
	return nil, fmt.Errorf("unsupported type %q", c.Type)
}

func parseDist(s string) (distrib.Discrete, error) {
	kind, args := splitSpec(s)
	switch kind {
	case "uniform":
		d, err := ints(args, 1)
		if err != nil {
			return nil, err
		}
		return distrib.NewUniform(int64(d[0])), nil
	case "zipf":
		if len(args) != 2 {
			return nil, fmt.Errorf("bad zipf spec %q", s)
		}
		d, err1 := strconv.ParseInt(args[0], 10, 64)
		theta, err2 := strconv.ParseFloat(args[1], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad zipf spec %q", s)
		}
		return distrib.NewZipf(d, theta), nil
	}
	return nil, fmt.Errorf("unsupported distribution %q", s)
}

func parseLen(s string) (distrib.Lengths, error) {
	kind, args := splitSpec(s)
	switch kind {
	case "uniform":
		a, err := ints(args, 2)
		if err != nil {
			return nil, err
		}
		return distrib.NewUniformLen(int(a[0]), int(a[1])), nil
	case "bimodal":
		if len(args) != 3 {
			return nil, fmt.Errorf("bad bimodal spec %q", s)
		}
		a, err := ints(args[:2], 2)
		p, err2 := strconv.ParseFloat(args[2], 64)
		if err != nil || err2 != nil {
			return nil, fmt.Errorf("bad bimodal spec %q", s)
		}
		return distrib.NewBimodalLen(int(a[0]), int(a[1]), p), nil
	}
	return nil, fmt.Errorf("unsupported length distribution %q", s)
}

func splitSpec(s string) (string, []string) {
	parts := strings.Split(s, ":")
	return parts[0], parts[1:]
}

func ints(args []string, want int) ([]int64, error) {
	if len(args) != want {
		return nil, fmt.Errorf("want %d integer argument(s), got %q", want, args)
	}
	out := make([]int64, want)
	for i, a := range args {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", a)
		}
		out[i] = v
	}
	return out, nil
}

// buildOrders materializes the immutable table exactly as cfserve's
// POST /tables does for a non-live spec.
func buildOrders() (*workload.Table, error) {
	ws, err := workloadSpec(ordersSpec)
	if err != nil {
		return nil, err
	}
	return workload.Generate(ws)
}

// buildLive creates the sharded live table in a fresh database and seeds
// it the way cfserve does: the spec's generated rows, inserted one by one
// through the partitioner.
func buildLive() (*db.ShardedTable, error) {
	ws, err := workloadSpec(liveSpec)
	if err != nil {
		return nil, err
	}
	schema, err := ws.Schema()
	if err != nil {
		return nil, err
	}
	bounds := make([][]byte, len(liveSpec.ShardBounds))
	for i, b := range liveSpec.ShardBounds {
		bounds[i] = value.IntValue(b)
	}
	st, err := db.New(0).CreateShardedTable(liveSpec.Name, schema, db.ShardSpec{
		Shards: liveSpec.Shards, Column: liveSpec.ShardColumn, By: liveSpec.ShardBy, Bounds: bounds,
	})
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewVirtual(ws)
	if err != nil {
		return nil, err
	}
	err = gen.Scan(func(_ int64, row value.Row) error {
		_, err := st.Insert(row)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("seed %s: %w", liveSpec.Name, err)
	}
	return st, nil
}
