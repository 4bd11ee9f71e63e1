package sampling

import (
	"fmt"

	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// Resumable draws: the sampling side of precision-targeted estimation.
//
// An adaptive estimation loop grows its sample in rounds — estimate, check
// the confidence interval, draw more rows, repeat — and must never redraw
// the rows of earlier rounds (that would waste the I/O the loop exists to
// save) while staying exactly reproducible. Both properties come from one
// rule: round k of a draw keyed by seed uses the derived stream
// rng.New(seed).Derive(k), independent of every other round. Replaying
// rounds 0..k with the same per-round sizes therefore reproduces the
// cumulative sample byte-for-byte, whether the rounds ran in one process
// or were resumed across calls.

// ExtendWRInto appends `extra` rows drawn uniformly with replacement —
// round `round` of the resumable draw keyed by seed — straight into the
// arena. Rounds are mutually independent WR draws, so
// the concatenation of rounds 0..k is itself a uniform WR sample of
// Σ sizes rows.
func ExtendWRInto(src RowSource, ar *value.RecordArena, extra int64, seed uint64, round int) error {
	if err := drawPoint.Check(); err != nil {
		return err
	}
	if round < 0 {
		return fmt.Errorf("sampling: negative round %d", round)
	}
	if extra < 0 {
		return fmt.Errorf("sampling: negative extension size %d", extra)
	}
	n := src.NumRows()
	if n == 0 {
		return fmt.Errorf("sampling: source is empty")
	}
	g := rng.New(seed).Derive(uint64(round))
	return gather(src, ar, extra, func() int64 { return g.Int63n(n) })
}

// WORExtendIndices draws `extra` distinct indices from [0, n) that avoid
// every index in chosen — round `round` of a resumable without-replacement
// draw keyed by seed — and records the new picks in chosen. Earlier
// rounds' picks are the caller's chosen set, so the union over rounds is a
// uniform WOR sample of Σ sizes indices; given the same chosen set, the
// round's output depends only on (n, extra, seed, round).
//
// Rejection sampling keeps the already-chosen fraction's cost explicit:
// the expected number of draws is extra/(1-|chosen|/n), cheap while the
// cumulative sample is small relative to n (the adaptive regime) and an
// error once chosen ∪ extra would exceed the population.
func WORExtendIndices(n, extra int64, seed uint64, round int, chosen map[int64]struct{}) ([]int64, error) {
	if round < 0 {
		return nil, fmt.Errorf("sampling: negative round %d", round)
	}
	if extra < 0 {
		return nil, fmt.Errorf("sampling: negative extension size %d", extra)
	}
	if free := n - int64(len(chosen)); extra > free {
		return nil, fmt.Errorf("sampling: WOR extension of %d exceeds the %d unchosen rows", extra, free)
	}
	g := rng.New(seed).Derive(uint64(round))
	metricRowsDrawn.Add(uint64(extra))
	out := make([]int64, 0, extra)
	for int64(len(out)) < extra {
		idx := g.Int63n(n)
		if _, dup := chosen[idx]; dup {
			continue
		}
		chosen[idx] = struct{}{}
		out = append(out, idx)
	}
	return out, nil
}

// ExtendInto appends `extra` reservoir rows that no earlier round picked —
// round `round` of the resumable WOR draw keyed by seed over this backing
// sample — into ar, updating chosen (arena slot indices) in place. The
// gather happens under the reservoir lock, so each round is internally
// consistent; callers that need cross-round consistency against concurrent
// churn should extend a snapshot arena with WORExtendIndices instead (the
// engine's route).
func (b *Backing) ExtendInto(ar *value.RecordArena, extra int64, seed uint64, round int, chosen map[int64]struct{}) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx, err := WORExtendIndices(int64(b.ar.Len()), extra, seed, round, chosen)
	if err != nil {
		return err
	}
	return ar.AppendFrom(b.ar, idx)
}
