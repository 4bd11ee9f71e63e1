package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"samplecf/internal/compress"
	"samplecf/internal/core"
	"samplecf/internal/db"
)

// oracle holds exact CFs by (columns, codec) for one table state,
// computed with core.TrueCF on an in-process copy of the table.
type oracle map[string]float64

func truthKey(cols []string, codec string) string {
	return strings.Join(cols, ",") + "|" + codec
}

func (o oracle) truth(a ask) (float64, bool) {
	cf, ok := o[truthKey(a.Cols, a.Codec)]
	return cf, ok
}

// trueCFs computes the exact CF of every (columns, codec) pair on src.
func trueCFs(src core.RowScanner, pairs []ask) (oracle, error) {
	out := oracle{}
	for _, a := range pairs {
		codec, err := compress.Lookup(a.Codec)
		if err != nil {
			return nil, err
		}
		res, err := core.TrueCF(src, a.Cols, codec, 0)
		if err != nil {
			return nil, fmt.Errorf("true CF of %v under %s: %w", a.Cols, a.Codec, err)
		}
		out[truthKey(a.Cols, a.Codec)] = res.CF()
	}
	return out, nil
}

// advisorPairs is every (column set, codec) pair the orders workloads ask.
func advisorPairs(codecs []string) []ask {
	var out []ask
	for _, c := range codecs {
		for _, cols := range columnSets {
			out = append(out, ask{Cols: cols, Codec: c})
		}
	}
	return out
}

// ordersOracle returns the exact CFs of orders, cached in dir under a
// name derived from the table spec and codec list, so a spec change
// never reads a stale file. Computing it materializes the 1M-row table
// and runs one TrueCF per pair.
func ordersOracle(dir string, codecs []string) (oracle, error) {
	spec, err := json.Marshal(struct {
		Spec   tableSpec
		Sets   [][]string
		Codecs []string
	}{ordersSpec, columnSets, codecs})
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(spec)
	path := filepath.Join(dir, "oracle-orders-"+hex.EncodeToString(sum[:8])+".json")
	if b, err := os.ReadFile(path); err == nil {
		var o oracle
		if err := json.Unmarshal(b, &o); err == nil && len(o) == len(columnSets)*len(codecs) {
			return o, nil
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	logf("computing the exact-CF oracle of %s (%d pairs; cached for later runs)", ordersSpec.Name, len(columnSets)*len(codecs))
	tab, err := buildOrders()
	if err != nil {
		return nil, err
	}
	o, err := trueCFs(tab, advisorPairs(codecs))
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(o)
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return o, os.Rename(tmp, path)
}

// liveOracle rebuilds orders_live in process, applies the inserts the
// server acknowledged, and computes the exact CFs of the given pairs on
// that mirrored final state.
func liveOracle(inserted []*op, pairs []ask) (oracle, error) {
	st, err := buildLive()
	if err != nil {
		return nil, err
	}
	if err := applyInserts(st, inserted); err != nil {
		return nil, err
	}
	return trueCFs(st, pairs)
}

func applyInserts(st *db.ShardedTable, ops []*op) error {
	for _, o := range ops {
		for _, row := range o.rows {
			if _, err := st.Insert(row); err != nil {
				return fmt.Errorf("mirror insert: %w", err)
			}
		}
	}
	return nil
}

// answer is one estimate as cfserve returns it.
type answer struct {
	CF            *float64 `json:"cf"`
	SampleRows    int64    `json:"sample_rows"`
	CacheHit      bool     `json:"cache_hit"`
	AchievedError float64  `json:"achieved_error"`
	Converged     *bool    `json:"converged"`
	Error         string   `json:"error"`
}

// parseAnswers decodes and validates a 2xx response body: one answer per
// ask, each without an error and with cf in (0, 1.5]; adaptive answers
// must carry their interval. Insert responses must acknowledge every row.
func parseAnswers(o *op, body []byte) ([]answer, error) {
	var ans []answer
	switch o.kind {
	case opInsert:
		var r struct {
			Inserted int `json:"inserted"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("insert response: %w", err)
		}
		if r.Inserted != len(o.rows) {
			return nil, fmt.Errorf("insert response acknowledges %d of %d rows", r.Inserted, len(o.rows))
		}
		return nil, nil
	case opWhatIf:
		var r struct {
			Results []answer `json:"results"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("whatif response: %w", err)
		}
		ans = r.Results
	case opEstimate:
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("estimate response: %w", err)
		}
		ans = []answer{a}
	}
	if len(ans) != len(o.asks) {
		return nil, fmt.Errorf("%d answers for %d asks", len(ans), len(o.asks))
	}
	for i, a := range ans {
		switch {
		case a.Error != "":
			return nil, fmt.Errorf("answer %d: error %q", i, a.Error)
		case a.CF == nil || math.IsNaN(*a.CF) || *a.CF <= 0 || *a.CF > 1.5:
			return nil, fmt.Errorf("answer %d: cf missing or outside (0, 1.5]", i)
		case a.SampleRows <= 0:
			return nil, fmt.Errorf("answer %d: sample_rows %d", i, a.SampleRows)
		case o.asks[i].Target > 0 && (a.Converged == nil || a.AchievedError <= 0):
			return nil, fmt.Errorf("answer %d: adaptive answer without its interval", i)
		}
	}
	return ans, nil
}

// accuracy accumulates answer quality against an oracle.
type accuracy struct {
	absErrPts    []float64 // |cf − exact| × 100 per answer
	adaptive     int       // adaptive answers checked
	ciMisses     int       // adaptive answers whose cf ± achieved_error misses
	computedRows []float64 // sample_rows of non-cached answers
}

func (acc *accuracy) add(o *op, ans []answer, truth oracle) error {
	for i, a := range ans {
		if !a.CacheHit {
			acc.computedRows = append(acc.computedRows, float64(a.SampleRows))
		}
		if truth == nil {
			continue
		}
		exact, ok := truth.truth(o.asks[i])
		if !ok {
			return fmt.Errorf("no exact CF for %v under %s", o.asks[i].Cols, o.asks[i].Codec)
		}
		acc.absErrPts = append(acc.absErrPts, math.Abs(*a.CF-exact)*100)
		if o.asks[i].Target > 0 {
			acc.adaptive++
			if math.Abs(*a.CF-exact) > a.AchievedError {
				acc.ciMisses++
			}
		}
	}
	return nil
}
