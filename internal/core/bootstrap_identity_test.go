package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"samplecf/internal/compress"
	"samplecf/internal/rng"
	"samplecf/internal/sortkeys"
	"samplecf/internal/stats"
)

// oracleBootstrap is the bootstrap as it ran before resamples were read off
// the prepared sort: draw r indices, sort them by key, gather their
// records, and size them page by page — through the codec's PageSizer
// where it has one, else through a session.
func oracleBootstrap(t *testing.T, p *PreparedIndex, codec compress.Codec, pageSize, resamples int, alpha float64, seed uint64) BootstrapCI {
	t.Helper()
	r := p.win.Len()
	rpp := compress.RowsPerPage(p.keySchema, pageSizeOrDefault(pageSize))
	g := rng.New(seed)
	perm := make([]int32, r)
	recs := make([][]byte, r)
	cfs := make([]float64, 0, resamples)
	var acc stats.Accumulator
	for b := 0; b < resamples; b++ {
		for i := range perm {
			perm[i] = int32(g.Intn(r))
		}
		sortkeys.Sort(p.win.Keys(), p.win.Stride(), p.win.Width(), perm)
		for i, pi := range perm {
			recs[i] = p.win.Rec(int(pi))
		}
		cf := oracleSize(t, p, codec, recs, rpp)
		cfs = append(cfs, cf)
		acc.Add(cf)
	}
	slices.Sort(cfs)
	return BootstrapCI{
		Lo:        stats.Quantile(cfs, alpha/2),
		Hi:        stats.Quantile(cfs, 1-alpha/2),
		Alpha:     alpha,
		Resamples: resamples,
		SD:        acc.StdDev(),
	}
}

// oracleSize returns the CF of records cut into pages of rpp rows.
func oracleSize(t *testing.T, p *PreparedIndex, codec compress.Codec, recs [][]byte, rpp int) float64 {
	t.Helper()
	if paged, ok := codec.(compress.Paged); ok {
		if sz, ok := paged.PC.(compress.PageSizer); ok {
			var comp int
			for start := 0; start < len(recs); start += rpp {
				n, _, err := sz.SizePage(p.keySchema, recs[start:min(start+rpp, len(recs))])
				if err != nil {
					t.Fatal(err)
				}
				comp += n
			}
			return compress.Result{CompressedBytes: int64(comp), UncompressedBytes: int64(len(recs) * p.keySchema.RowWidth())}.CF()
		}
	}
	sess, err := codec.NewSession(p.keySchema)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(recs); start += rpp {
		if err := sess.AddPage(recs[start:min(start+rpp, len(recs))]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res.CF()
}

// sameBits reports whether two float64s are the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBootstrapMatchesSortingOracle: reading each resample off the
// prepared sort by multiplicity must give, bit for bit, the SD, Lo and Hi
// of the oracle that re-sorts and re-sizes every resample — for every
// codec, at r ∈ {1, 63, 2401}, over three seeds, on a root index (through
// the public Bootstrap), on a Prefix chain member that shares the root's
// perm, and on an index that ExtendFromArena grew by half again. SDScale,
// the adaptive loop's σ_h, must equal the oracle's SD at its own seed. The
// three indexes of a sample run in parallel, so under the race detector
// the root and its chain member read their shared arena and perm at once.
func TestBootstrapMatchesSortingOracle(t *testing.T) {
	const pageSize = 512
	for _, r := range []int{1, 63, 2401} {
		for seed := uint64(1); seed <= 3; seed++ {
			_, _, sample := windowSample(t, r, seed)
			root, err := PrepareFromArena(sample, 1_000_000, nil)
			if err != nil {
				t.Fatal(err)
			}
			member, err := root.Prefix([]string{"a", "b"})
			if err != nil {
				t.Fatal(err)
			}
			grown, err := PrepareFromArena(sample, 1_000_000, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, _, extra := windowSample(t, (r+1)/2, seed+100)
			if err := grown.ExtendFromArena(extra); err != nil {
				t.Fatal(err)
			}
			for _, v := range []struct {
				what string
				p    *PreparedIndex
			}{{"root", root}, {"prefix", member}, {"extended", grown}} {
				t.Run(fmt.Sprintf("r=%d/seed=%d/%s", r, seed, v.what), func(t *testing.T) {
					t.Parallel()
					bseed := seed ^ 0xb007 ^ 1<<32
					for _, name := range compress.Names() {
						codec := mustCodec(t, name)
						want := oracleBootstrap(t, v.p, codec, pageSize, bootstrapResamples, 0.05, bseed)
						var got BootstrapCI
						var err error
						if v.p == root {
							got, err = Bootstrap(sample, codec, pageSize, bootstrapResamples, 0.05, bseed)
						} else {
							got, err = v.p.bootstrap(codec, pageSize, bootstrapResamples, 0.05, bseed)
						}
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !sameBits(got.SD, want.SD) || !sameBits(got.Lo, want.Lo) || !sameBits(got.Hi, want.Hi) {
							t.Fatalf("%s: bootstrap (SD %v, [%v, %v]), oracle (SD %v, [%v, %v])",
								name, got.SD, got.Lo, got.Hi, want.SD, want.Lo, want.Hi)
						}
						method, sd, err := v.p.SDScale(Options{Codec: codec, PageSize: pageSize, Seed: seed}, 1)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if method == CIMethodBootstrap && !sameBits(sd, want.SD) {
							t.Fatalf("%s: SDScale %v, oracle SD %v", name, sd, want.SD)
						}
					}
				})
			}
		}
	}
}
