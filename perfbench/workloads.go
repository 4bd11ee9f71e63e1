package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"samplecf/internal/rng"
	"samplecf/internal/value"
	"samplecf/internal/workload"
)

// Request shape shared by every workload.
const (
	fixedFraction   = 0.01    // fixed-r asks sample 1% of the table
	confidence      = 0.95    // adaptive asks target a 95% interval
	adaptiveMaxRows = 100_000 // adaptive row budget per ask
	insertBatch     = 16      // rows per insert request
	whatifCands     = 8       // candidates per /whatif request
	hotIdentities   = 256     // adaptive-hot's repeated working set
	liveIdentities  = 16      // live-churn's estimate identities
	novelEvery      = 33      // adaptive-hot: one read in 33 (3%) is a never-seen identity
	adaptiveEvery   = 5       // live-churn: one read in 5 is a stratified adaptive ask
	shard0Share     = 0.8     // insert batches landing in orders_live shard 0
	// catalogSeed fixes the identity sets (the hot working set, the live
	// identities and the live check seeds): they are the workload's
	// definition, like its tables. The run seed drives the traffic.
	catalogSeed = 0x5eed
)

// workloadDef fixes a workload's offered load and probe size. The rates
// sit at a fifth to a half of the closed-loop capacity measured on the
// recording box (2 vCPUs shared by server and generator), below the
// queueing knee, so that the median does not swing with co-tenant load.
type workloadDef struct {
	name string
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// closedRate sizes the closed-loop capacity phase: it sends
	// closedRate × its share of the seconds ops, about what the recording
	// box completes in that time, so every run does the same work.
	closedRate float64
	// writeEvery makes one op in writeEvery an insert batch, so that
	// write latency under each workload's load is measured too.
	writeEvery int
	// probeRows is the sample size r of the direct layer probes: the r
	// the workload's fixed-r asks draw.
	probeRows int64
	// live reports whether the reads target orders_live (so the answer
	// checks run against the mirrored final state).
	live bool
}

var workloads = []workloadDef{
	{name: "whatif-cold", rate: 12, closedRate: 60, writeEvery: 3, probeRows: 10_000},
	{name: "adaptive-hot", rate: 120, closedRate: 1500, writeEvery: 10, probeRows: 10_000},
	{name: "live-churn", rate: 60, closedRate: 240, writeEvery: 2, probeRows: 2_000, live: true},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type opKind int

const (
	opWhatIf opKind = iota
	opEstimate
	opInsert
)

func (k opKind) isRead() bool { return k != opInsert }

// ask is one (columns, codec) question. Target 0 is a fixed-r ask at
// fixedFraction; otherwise an adaptive ask for ±Target at confidence.
type ask struct {
	Cols   []string
	Codec  string
	Strata int
	Target float64
}

// op is one request of a workload, with what the checks and the
// in-process replay need to interpret it.
type op struct {
	kind  opKind
	table string
	seed  uint64
	asks  []ask
	rows  []value.Row // insert: rows as the server decodes them
	path  string
	body  []byte
}

type candidateJSON struct {
	Columns []string `json:"columns"`
	Codec   string   `json:"codec"`
}

type whatIfJSON struct {
	Table      string          `json:"table"`
	Candidates []candidateJSON `json:"candidates"`
	Fraction   float64         `json:"fraction"`
	Seed       uint64          `json:"seed"`
}

type estimateJSON struct {
	Table         string   `json:"table"`
	Columns       []string `json:"columns"`
	Codec         string   `json:"codec"`
	Fraction      float64  `json:"fraction,omitempty"`
	Seed          uint64   `json:"seed"`
	Strata        int      `json:"strata,omitempty"`
	TargetError   float64  `json:"target_error,omitempty"`
	Confidence    float64  `json:"confidence,omitempty"`
	MaxSampleRows int64    `json:"max_sample_rows,omitempty"`
}

// encode fills the op's HTTP path and body.
func (o *op) encode() {
	var v any
	switch o.kind {
	case opWhatIf:
		o.path = "/whatif"
		req := whatIfJSON{Table: o.table, Fraction: fixedFraction, Seed: o.seed}
		for _, a := range o.asks {
			req.Candidates = append(req.Candidates, candidateJSON{Columns: a.Cols, Codec: a.Codec})
		}
		v = req
	case opEstimate:
		o.path = "/estimate"
		a := o.asks[0]
		req := estimateJSON{Table: o.table, Columns: a.Cols, Codec: a.Codec, Seed: o.seed, Strata: a.Strata}
		if a.Target > 0 {
			req.TargetError, req.Confidence, req.MaxSampleRows = a.Target, confidence, adaptiveMaxRows
		} else {
			req.Fraction = fixedFraction
		}
		v = req
	case opInsert:
		o.path = "/tables/" + o.table + "/rows"
		wire := make([][]any, len(o.rows))
		for i, r := range o.rows {
			wire[i] = []any{string(r[0]), string(r[1]), string(r[2]), value.DecodeInt32(r[3])}
		}
		v = map[string]any{"rows": wire}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode op: %v", err)) // plain data: a bug
	}
	o.body = b
}

// identity is a repeated ask: a fixed (columns, codec, seed, strata).
type identity struct {
	ask
	seed uint64
}

// stream generates one workload's deterministic op sequence from a seed.
// Streams are not safe for concurrent use.
type stream struct {
	def    *workloadDef
	r      *rand.Rand
	codecs []string
	rows   *rowGen

	hot    []identity // adaptive-hot working set, by Zipf rank
	zipf   *rand.Zipf
	novel  []ask // adaptive-hot never-seen asks, in the order they are sent
	nNovel int
	// nOps and nReads count the ops and reads generated: the op mix sits
	// at fixed positions, so every seed sends the same mix.
	nOps, nReads int
	live         []identity // live-churn identities
}

// Stream ids: the warm-up, the timed open loop, the live check set, and
// the closed-loop capacity phase. The capacity phase runs on catalogSeed
// whatever the run seed, so every run measures capacity on the same op
// sequence; it starts half-way through the novel-ask list, past what the
// open loop uses.
const (
	sidWarmup = 1 + iota
	sidTimed
	sidCheck
	sidCapacity
)

// newStream returns the stream with id sid of the workload's seed. The
// identity sets derive from catalogSeed, so every stream agrees on them.
func newStream(def *workloadDef, seed uint64, sid uint64, codecs []string) *stream {
	base := rand.New(rand.NewPCG(catalogSeed, 0))
	if sid == sidCapacity {
		seed = catalogSeed
	}
	s := &stream{
		def:    def,
		r:      rand.New(rand.NewPCG(seed, sid)),
		codecs: codecs,
		rows:   newRowGen(seed ^ sid*0x9e3779b97f4a7c15),
	}
	for i := 0; i < hotIdentities; i++ {
		s.hot = append(s.hot, identity{
			ask: ask{
				Cols:   columnSets[base.IntN(len(columnSets))],
				Codec:  codecs[base.IntN(len(codecs))],
				Strata: []int{0, 8}[base.IntN(2)],
			},
			seed: base.Uint64() | 1,
		})
	}
	s.zipf = rand.NewZipf(s.r, 1.1, 1, hotIdentities-1)
	if sid == sidCapacity {
		s.nNovel = len(columnSets) * len(codecs) * len(novelStrata) / 2
	}
	for _, p := range base.Perm(len(columnSets) * len(codecs) * len(novelStrata)) {
		pair := p % (len(columnSets) * len(codecs))
		s.novel = append(s.novel, ask{
			Cols:   columnSets[pair%len(columnSets)],
			Codec:  codecs[pair/len(columnSets)],
			Strata: novelStrata[p/(len(columnSets)*len(codecs))],
			Target: []float64{0.02, 0.05}[p%2],
		})
	}
	pairs := base.Perm(len(columnSets) * len(codecs))
	for _, p := range pairs[:liveIdentities] {
		s.live = append(s.live, identity{
			ask:  ask{Cols: columnSets[p%len(columnSets)], Codec: codecs[p/len(columnSets)]},
			seed: base.Uint64() | 1,
		})
	}
	return s
}

// next returns the workload's next timed op.
func (s *stream) next() op {
	var o op
	s.nOps++
	if s.nOps%s.def.writeEvery == 0 {
		o = s.insert()
		o.encode()
		return o
	}
	s.nReads++
	switch s.def.name {
	case "whatif-cold":
		o = s.whatif()
	case "adaptive-hot":
		if s.nReads%novelEvery == 0 {
			o = s.novelAsk()
		} else {
			id := s.hot[s.zipf.Uint64()]
			id.Target = []float64{0.02, 0.05}[s.r.IntN(2)]
			o = s.estimate(ordersSpec.Name, id)
		}
	case "live-churn":
		id := s.live[s.r.IntN(len(s.live))]
		if s.nReads%adaptiveEvery == 0 {
			id.Strata, id.Target = 8, 0.05
		}
		o = s.estimate(liveSpec.Name, id)
	}
	o.encode()
	return o
}

// warmup returns the untimed ops that precede the timed phase: for
// adaptive-hot, every hot identity at the tighter target, so that the
// working set is resident before timing starts.
func (s *stream) warmup() []op {
	var ops []op
	switch s.def.name {
	case "adaptive-hot":
		for _, id := range s.hot {
			id.Target = 0.02
			ops = append(ops, s.estimate(ordersSpec.Name, id))
		}
		for i := 0; i < 8; i++ {
			ops = append(ops, s.insert())
		}
	default:
		for i := 0; i < 24; i++ {
			ops = append(ops, s.next())
		}
	}
	for i := range ops {
		ops[i].encode()
	}
	return ops
}

// checkSet returns live-churn's post-run accuracy asks: every identity at
// eight fixed-r seeds plus one stratified adaptive ask.
func (s *stream) checkSet() []op {
	var ops []op
	for _, id := range s.live {
		for k := uint64(0); k < 8; k++ {
			o := s.estimate(liveSpec.Name, id)
			o.seed = id.seed + 2*k
			ops = append(ops, o)
		}
		id.Strata, id.Target = 8, 0.05
		ops = append(ops, s.estimate(liveSpec.Name, id))
	}
	for i := range ops {
		ops[i].encode()
	}
	return ops
}

func (s *stream) whatif() op {
	o := op{kind: opWhatIf, table: ordersSpec.Name, seed: s.r.Uint64() | 1}
	n := len(columnSets) * len(s.codecs)
	for _, p := range s.r.Perm(n)[:whatifCands] {
		o.asks = append(o.asks, ask{Cols: columnSets[p%len(columnSets)], Codec: s.codecs[p/len(columnSets)]})
	}
	return o
}

func (s *stream) estimate(table string, id identity) op {
	return op{kind: opEstimate, table: table, seed: id.seed, asks: []ask{id.ask}}
}

// novelStrata are the strata counts of never-seen asks: any count other
// than the working set's 0 and 8 makes a new precision-cache key. A short
// list keeps the strata directories they build (one O(n) scan each) few.
var novelStrata = []int{2, 3, 4, 5, 6, 7, 9, 10, 11, 12}

// novelAsk is the next never-seen adaptive ask: a (columns, codec,
// strata) precision key no earlier op of the run asked. The sequence is
// part of the catalog, so every seed pays for the same novel work; after
// len(novel) asks it wraps around and the repeats hit the cache.
func (s *stream) novelAsk() op {
	a := s.novel[s.nNovel%len(s.novel)]
	s.nNovel++
	return s.estimate(ordersSpec.Name, identity{ask: a, seed: uint64(s.nNovel)<<1 | 1})
}

func (s *stream) insert() op {
	shard := 0
	if s.r.Float64() >= shard0Share {
		shard = 1 + s.r.IntN(len(liveSpec.ShardBounds))
	}
	o := op{kind: opInsert, table: liveSpec.Name}
	for i := 0; i < insertBatch; i++ {
		o.rows = append(o.rows, s.rows.row(shard))
	}
	return o
}

// rowGen draws insert rows from orders_live's own column distributions.
type rowGen struct {
	g    *rng.RNG
	gens []workload.ColumnGen
}

func newRowGen(seed uint64) *rowGen {
	ws, err := workloadSpec(liveSpec)
	if err != nil {
		panic(fmt.Sprintf("perfbench: %v", err)) // the spec is a constant
	}
	rg := &rowGen{g: rng.New(seed)}
	for _, c := range ws.Cols {
		rg.gens = append(rg.gens, c.Gen)
	}
	return rg
}

// row returns one row whose qty routes it to the given shard of
// orders_live's range partitioning.
func (rg *rowGen) row(shard int) value.Row {
	row := make(value.Row, len(rg.gens))
	for c := 0; c < 3; c++ {
		row[c] = value.StringValue(string(rg.gens[c].Payload(rg.gens[c].Dist().Draw(rg.g))))
	}
	lo, hi := int32(0), int32(500)
	bounds := liveSpec.ShardBounds
	if shard > 0 {
		lo = bounds[shard-1]
	}
	if shard < len(bounds) {
		hi = bounds[shard]
	}
	row[3] = value.IntValue(lo + int32(rg.g.Int63n(int64(hi-lo))))
	return row
}
