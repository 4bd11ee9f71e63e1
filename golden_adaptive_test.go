// Golden-adaptive regression tests: exact precision-targeted outcomes for
// fixed seeds.
//
// An adaptive estimate depends on more than one sample: the round-0 draw,
// every extension round's stream, the growth rule that sizes each round,
// and the CI machinery that decides when to stop. These tests pin, for
// every codec at two targets and two seeds on goldenTable, the final
// {CompressedBytes, UncompressedBytes, SampleRows, SampleDistinct, Rounds,
// Converged, AchievedError bits} through both the direct entry point
// (samplecf.EstimateAdaptive) and the engine. Any change to how the loop
// draws, grows, or stops fails here.
//
// Regenerate (after an intentional semantic change, never for a perf change):
//
//	GOLDEN_PRINT=1 go test -run TestGoldenAdaptive -v . 2>&1 | grep '^\t{'
package samplecf_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"

	"samplecf"
)

// goldenAdaptiveCols is the key the adaptive cases index: the Zipf-skewed
// product column, where the ±2% bootstrap cases need up to three rounds.
var goldenAdaptiveCols = []string{"product"}

// goldenAdaptiveCase is one pinned adaptive ask.
type goldenAdaptiveCase struct {
	codec  string
	target float64
	seed   uint64
}

func (c goldenAdaptiveCase) name() string {
	return fmt.Sprintf("%s/±%v/seed=%d", c.codec, c.target, c.seed)
}

// goldenAdaptiveMatrix enumerates every codec × {±2%, ±5%} × seeds {1, 2}.
func goldenAdaptiveMatrix() []goldenAdaptiveCase {
	var cases []goldenAdaptiveCase
	for _, codec := range samplecf.Codecs() {
		for _, target := range []float64{0.02, 0.05} {
			for _, seed := range []uint64{1, 2} {
				cases = append(cases, goldenAdaptiveCase{codec: codec, target: target, seed: seed})
			}
		}
	}
	return cases
}

// goldenAdaptiveOutcome is the pinned part of one adaptive result.
type goldenAdaptiveOutcome struct {
	comp, uncomp, rows, distinct int64
	rounds                       int
	converged                    bool
	errBits                      uint64
}

func (o goldenAdaptiveOutcome) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %v, %#x}",
		o.comp, o.uncomp, o.rows, o.distinct, o.rounds, o.converged, o.errBits)
}

func adaptiveOutcome(est samplecf.Estimation, rounds int, converged bool, achieved float64) goldenAdaptiveOutcome {
	return goldenAdaptiveOutcome{
		comp: est.Result.CompressedBytes, uncomp: est.Result.UncompressedBytes,
		rows: est.SampleRows, distinct: est.SampleDistinct,
		rounds: rounds, converged: converged, errBits: math.Float64bits(achieved),
	}
}

// runDirect runs the case through samplecf.EstimateAdaptive.
func (c goldenAdaptiveCase) runDirect(t testing.TB, tab *samplecf.Table) goldenAdaptiveOutcome {
	t.Helper()
	codec, err := samplecf.LookupCodec(c.codec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := samplecf.EstimateAdaptive(tab,
		samplecf.Options{Codec: codec, KeyColumns: goldenAdaptiveCols, Seed: c.seed},
		samplecf.Precision{TargetError: c.target})
	if err != nil {
		t.Fatal(err)
	}
	return adaptiveOutcome(res.Estimate, res.Rounds, res.Converged, res.AchievedError)
}

// runEngine runs the case as an engine adaptive request.
func (c goldenAdaptiveCase) runEngine(t testing.TB, eng *samplecf.Engine, tab *samplecf.Table) goldenAdaptiveOutcome {
	t.Helper()
	codec, err := samplecf.LookupCodec(c.codec)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Estimate(context.Background(), samplecf.EngineRequest{
		Table: tab, KeyColumns: goldenAdaptiveCols, Codec: codec,
		TargetError: c.target, Seed: c.seed,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return adaptiveOutcome(res.Estimate, res.Rounds, res.Converged, res.AchievedError)
}

// TestGoldenAdaptive pins the exact adaptive outcomes of both entry
// points. With GOLDEN_PRINT=1 it prints the case table instead of
// asserting.
func TestGoldenAdaptive(t *testing.T) {
	tab := goldenTable(t)
	eng := samplecf.NewEngine(samplecf.EngineConfig{CacheEntries: -1})
	defer eng.Close()
	cases := goldenAdaptiveMatrix()
	if os.Getenv("GOLDEN_PRINT") != "" {
		for _, c := range cases {
			t.Logf("%v, // %s", c.runDirect(t, tab), c.name())
		}
		return
	}
	if len(cases) != len(goldenAdaptiveWant) {
		t.Fatalf("golden table has %d rows, matrix has %d cases", len(goldenAdaptiveWant), len(cases))
	}
	for i, c := range cases {
		want := goldenAdaptiveWant[i]
		t.Run(c.name(), func(t *testing.T) {
			if got := c.runDirect(t, tab); got != want {
				t.Errorf("direct outcome drifted: got %v, want %v", got, want)
			}
			if got := c.runEngine(t, eng, tab); got != want {
				t.Errorf("engine outcome drifted: got %v, want %v", got, want)
			}
		})
	}
}

// goldenAdaptiveWant is the pinned outcome per goldenAdaptiveMatrix case:
// {comp, uncomp, rows, distinct, rounds, converged, AchievedError bits}.
// Regenerate with GOLDEN_PRINT=1 (see file comment).
var goldenAdaptiveWant = []goldenAdaptiveOutcome{
	{5166, 10240, 256, 227, 1, true, 0x3f92d5ca60d99f46},    // for/±0.02/seed=1
	{5090, 10240, 256, 232, 1, true, 0x3f9322a9829e5f5e},    // for/±0.02/seed=2
	{5166, 10240, 256, 227, 1, true, 0x3f92d5ca60d99f46},    // for/±0.05/seed=1
	{5090, 10240, 256, 232, 1, true, 0x3f9322a9829e5f5e},    // for/±0.05/seed=2
	{32296, 40960, 1024, 756, 3, true, 0x3f8f79f42de38e20},  // globaldict/±0.02/seed=1
	{32976, 40960, 1024, 773, 3, true, 0x3f93c9d942edf675},  // globaldict/±0.02/seed=2
	{9344, 10240, 256, 227, 1, true, 0x3fa37508ac98085f},    // globaldict/±0.05/seed=1
	{9544, 10240, 256, 232, 1, true, 0x3fa2087292387351},    // globaldict/±0.05/seed=2
	{34344, 40960, 1024, 756, 3, true, 0x3f8f79f42de38e20},  // globaldict-p4/±0.02/seed=1
	{35024, 40960, 1024, 773, 3, true, 0x3f93c9d942edf675},  // globaldict-p4/±0.02/seed=2
	{10112, 10240, 256, 227, 1, true, 0x3fa37508ac98085f},   // globaldict-p4/±0.05/seed=1
	{10312, 10240, 256, 232, 1, true, 0x3fa2087292387351},   // globaldict-p4/±0.05/seed=2
	{4483, 10240, 256, 227, 1, true, 0x3f880758c6616a55},    // huffman/±0.02/seed=1
	{4433, 10240, 256, 232, 1, true, 0x3f887acd5cd2a97b},    // huffman/±0.02/seed=2
	{4483, 10240, 256, 227, 1, true, 0x3f880758c6616a55},    // huffman/±0.05/seed=1
	{4433, 10240, 256, 232, 1, true, 0x3f887acd5cd2a97b},    // huffman/±0.05/seed=2
	{50018, 96040, 2401, 1540, 2, true, 0x3f947ac89dff587f}, // nullsuppression/±0.02/seed=1
	{49035, 96040, 2401, 1524, 2, true, 0x3f947ac89dff587f}, // nullsuppression/±0.02/seed=2
	{10672, 20480, 512, 422, 2, true, 0x3fa62ca97d0fbb29},   // nullsuppression/±0.05/seed=1
	{10482, 20480, 512, 432, 2, true, 0x3fa62ca97d0fbb29},   // nullsuppression/±0.05/seed=2
	{9387, 20480, 512, 422, 2, true, 0x3f921f29d40f4553},    // page/±0.02/seed=1
	{9349, 20480, 512, 432, 2, true, 0x3f8f859cd75de5d0},    // page/±0.02/seed=2
	{4888, 10240, 256, 227, 1, true, 0x3f948f1156b0dc16},    // page/±0.05/seed=1
	{4908, 10240, 256, 232, 1, true, 0x3f947bf4afd9ee8d},    // page/±0.05/seed=2
	{31328, 40960, 1024, 756, 3, true, 0x3f90682ad30a6743},  // pagedict/±0.02/seed=1
	{32008, 40960, 1024, 773, 3, true, 0x3f93991b81ef08ce},  // pagedict/±0.02/seed=2
	{9344, 10240, 256, 227, 1, true, 0x3fa361af3585d206},    // pagedict/±0.05/seed=1
	{9544, 10240, 256, 232, 1, true, 0x3fa1ff27e1f2937e},    // pagedict/±0.05/seed=2
	{31247, 40960, 1024, 756, 3, true, 0x3f907c39b9b60dab},  // pagedict+bitpack/±0.02/seed=1
	{31927, 40960, 1024, 773, 3, true, 0x3f9396acf6a579f7},  // pagedict+bitpack/±0.02/seed=2
	{9336, 10240, 256, 227, 1, true, 0x3fa361af3585d206},    // pagedict+bitpack/±0.05/seed=1
	{9536, 10240, 256, 232, 1, true, 0x3fa1ff27e1f2937e},    // pagedict+bitpack/±0.05/seed=2
	{9463, 20480, 512, 422, 2, true, 0x3f9158ea422fe9bb},    // pagedict+ns/±0.02/seed=1
	{9494, 20480, 512, 432, 2, true, 0x3f8e988815b91344},    // pagedict+ns/±0.02/seed=2
	{4924, 10240, 256, 227, 1, true, 0x3f948d82143204ea},    // pagedict+ns/±0.05/seed=1
	{4981, 10240, 256, 232, 1, true, 0x3f947bf4afd9ee8c},    // pagedict+ns/±0.05/seed=2
	{5139, 10240, 256, 227, 1, true, 0x3f94501fc857b9c7},    // prefix/±0.02/seed=1
	{10407, 20480, 512, 432, 2, true, 0x3f90687c5d247831},   // prefix/±0.02/seed=2
	{5139, 10240, 256, 227, 1, true, 0x3f94501fc857b9c7},    // prefix/±0.05/seed=1
	{5053, 10240, 256, 232, 1, true, 0x3f950d6695ac6c50},    // prefix/±0.05/seed=2
	{9795, 20480, 512, 422, 2, true, 0x3f92da0f18aec1a5},    // rle/±0.02/seed=1
	{9846, 20480, 512, 432, 2, true, 0x3f90666b7574876d},    // rle/±0.02/seed=2
	{5122, 10240, 256, 227, 1, true, 0x3f9654deb915de81},    // rle/±0.05/seed=1
	{5189, 10240, 256, 232, 1, true, 0x3f961948a300d369},    // rle/±0.05/seed=2
}
