package main

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The machine a benchmark shares with other tenants changes speed over
// tens of minutes: on the recording box (a 2-vCPU VM) two sets of ten runs
// an hour apart differed by 10–27% on every time metric, server CPU time
// included, which is more than the largest bound the regression gate
// allows. The gated times are therefore stated at a fixed reference speed:
// each run times a speed probe, a fixed kernel built from the Go standard
// library only (so no change to the repository moves it), and scales its
// times by referenceProbeMs / probe. The report prints the raw times too.

// referenceProbeMs is about the speed probe's median time on the recording
// box (75–105 ms as its speed drifted). A run whose probe takes exactly
// this long reports its times unscaled.
const referenceProbeMs = 80.0

// Probe kernel size: each of nproc workers sorts, counts and deflates
// probeKeys keys of probeKeyLen bytes, the shape of the server's own work
// (sort a key arena, profile its distinct keys, encode pages).
const (
	probeKeys   = 1 << 16
	probeKeyLen = 16
	probeBursts = 5 // bursts per probe point
)

// speedProbe accumulates burst times taken at several points of a run.
type speedProbe struct {
	burstsMs []float64
}

// measure times probeBursts bursts, each running the kernel on every CPU
// at once, so that both per-core speed and contention between cores count.
func (sp *speedProbe) measure() {
	workers := runtime.NumCPU()
	for b := 0; b < probeBursts; b++ {
		runtime.GC()
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				probeKernel(seed)
			}(uint64(w + 1))
		}
		wg.Wait()
		sp.burstsMs = append(sp.burstsMs, ms(time.Since(t0)))
	}
}

// ms is the median burst time.
func (sp *speedProbe) ms() float64 { return median(sp.burstsMs) }

// scale is the factor that restates a time measured in this run at the
// reference speed.
func (sp *speedProbe) scale() float64 { return referenceProbeMs / sp.ms() }

// probeKernel is one fixed unit of work: fill a key buffer from an
// xorshift stream (a few thousand distinct keys, so the map and deflate
// see repeats), sort a permutation of the keys, count the distinct keys,
// and deflate the buffer. It returns the distinct count so that the work
// cannot be optimised away.
func probeKernel(seed uint64) int {
	buf := make([]byte, probeKeys*probeKeyLen)
	x := seed*0x9e3779b97f4a7c15 | 1
	for i := 0; i < len(buf); i += probeKeyLen {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.BigEndian.PutUint64(buf[i:], x%4096)
		binary.BigEndian.PutUint64(buf[i+8:], (x>>32)%64)
	}
	key := func(i int32) []byte { return buf[int(i)*probeKeyLen : int(i+1)*probeKeyLen] }
	perm := make([]int32, probeKeys)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return bytes.Compare(key(a), key(b)) })
	distinct := map[string]int32{}
	for _, i := range perm {
		distinct[string(key(i))]++
	}
	zw, _ := flate.NewWriter(io.Discard, flate.BestSpeed) // BestSpeed is a valid level
	_, _ = zw.Write(buf)                                  // io.Discard never fails
	_ = zw.Close()
	return len(distinct)
}
