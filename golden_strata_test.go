// Golden equivalence for stratification: Strata=1 is the degenerate
// configuration and must be *byte-identical* to the unstratified path —
// same sample draw, same sorted arena, same compressed size — for every
// pinned golden case the engine can serve. One stratum is no
// stratification: the engine rewrites Strata 1 to 0 after validation, so
// the ask takes the plain route, and any drift here means that rewrite
// (or the plain route) changed estimator semantics, not just performance.
package samplecf_test

import (
	"context"
	"testing"

	"samplecf"
)

// TestGoldenSingleStratumMatchesUnstratified pins the Strata=1
// configuration to the golden table: every engine-eligible case (fixed-r,
// WR) must reproduce the exact pinned {comp, uncomp, r, d'} quadruple
// through the stratified path. FreshSample keeps the draw a pure function
// of (rows, r, seed), independent of the maintained backing sample's
// instance seed.
func TestGoldenSingleStratumMatchesUnstratified(t *testing.T) {
	tab := goldenTable(t)
	eng := samplecf.NewEngine(samplecf.EngineConfig{CacheEntries: -1})
	defer eng.Close()

	cases := goldenMatrix()
	if len(cases) != len(goldenWant) {
		t.Fatalf("golden table has %d rows, matrix has %d cases", len(goldenWant), len(cases))
	}
	ran := 0
	for i, c := range cases {
		if c.wor || c.rows == 0 {
			continue // engine draws WR with SampleRows
		}
		wantComp, wantUncomp := goldenWant[i][0], goldenWant[i][1]
		wantR, wantD := goldenWant[i][2], goldenWant[i][3]
		t.Run(c.name(), func(t *testing.T) {
			codec, err := samplecf.LookupCodec(c.codec)
			if err != nil {
				t.Fatal(err)
			}
			res := eng.Estimate(context.Background(), samplecf.EngineRequest{
				Table: tab, KeyColumns: c.cols, Codec: codec,
				SampleRows: c.rows, Seed: c.seed, FreshSample: true,
				Strata: 1,
			})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			est := res.Estimate
			if est.Result.CompressedBytes != wantComp ||
				est.Result.UncompressedBytes != wantUncomp ||
				est.SampleRows != wantR ||
				est.SampleDistinct != wantD {
				t.Errorf("single-stratum estimate drifted: got {comp=%d, uncomp=%d, r=%d, d'=%d}, want {%d, %d, %d, %d}",
					est.Result.CompressedBytes, est.Result.UncompressedBytes,
					est.SampleRows, est.SampleDistinct,
					wantComp, wantUncomp, wantR, wantD)
			}
			if want := float64(wantComp) / float64(wantUncomp); est.CF != want {
				t.Errorf("CF = %v, want %v", est.CF, want)
			}
		})
		ran++
	}
	if ran == 0 {
		t.Fatal("no golden cases were engine-eligible")
	}
}
