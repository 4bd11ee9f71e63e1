// Package sortkeys sorts permutations over fixed-width memcomparable keys —
// the one sort the estimation pipeline performs (Fig. 2 step 2: order the
// sampled index records) — and profiles equal-key runs as a by-product.
//
// The estimators only ever consume sorted, deduplicated keys, and keys in a
// value.RecordArena are fixed-width byte strings, so a comparison sort pays
// for generality nothing here needs: sort.Sort costs an interface dispatch
// plus a bytes.Compare per comparison on every one of its O(r log r) steps,
// then the caller pays a second full pass to rebuild the run-length
// frequency profile the sort already implicitly discovered. This package
// replaces both with one MSD byte-radix pass structure:
//
//   - a 256-way counting pass per byte column distributes the permutation
//     (never the keys) through a shared scratch buffer — no key bytes move;
//   - buckets at or below a small cutoff finish with an insertion sort on
//     the undistinguished key suffix;
//   - buckets that exhaust the key width, singleton buckets, and the
//     adjacent-equal runs of insertion-sorted buckets are exactly the
//     equal-key runs of the final order, so the run-length frequency
//     profile ([]distinct.FreqCount) falls out of the recursion for free —
//     sort and profiling fused into one pass over the data;
//   - large buckets recurse on a bounded worker group (≤ min(GOMAXPROCS,
//     workgroup.MaxWorkers), the same discipline as compress.MeasureArena),
//     each goroutine accumulating its own profile histogram, merged once at
//     the end. Bucket ranges are disjoint, so workers share the scratch
//     buffer without synchronization.
//
// Keys are addressed by stride: key p is keys[p·stride : p·stride+w]. An
// index whose key columns are a run of a sample's columns is a window of
// the sample's key buffer, sorted in place with the sample's row width as
// stride; no key is copied out first. A permutation sorted on a key is
// sorted on each of its prefixes, so ProfileSorted profiles a shorter key
// of the same window off the same permutation — one sort per key chain.
//
// Ordering contract: the resulting permutation sorts keys ascending. The
// order of equal keys is NOT stable and may differ from sort.Sort's — every
// consumer (page chunking for compression measurement, run-length
// profiling, B+-tree bulk loads) sees only the key byte sequence, and in a
// RecordArena equal keys imply equal records (the key encoding is bijective
// with the record encoding), so tie order is unobservable downstream: the
// measured byte stream and the profile are byte-identical to the old
// comparison sort's.
package sortkeys

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"samplecf/internal/distinct"
	"samplecf/internal/faults"
	"samplecf/internal/workgroup"
)

const (
	// insertionCutoff is the bucket size at or below which the recursion
	// finishes with an insertion sort on key suffixes instead of another
	// counting pass. It is deliberately generous: a counting pass zeroes
	// and scans 256 counters per byte column, so duplicate-heavy buckets —
	// which stay byte-identical for many columns — are far cheaper to
	// finish by comparison, where an equal run costs one suffix compare
	// per adjacent pair.
	insertionCutoff = 64
	// parallelCutoff is the minimum bucket size worth handing to another
	// goroutine; smaller buckets recurse inline.
	parallelCutoff = 4096
	// smallRunCap bounds the array part of the run-length histogram; runs
	// longer than this (one key occupying >512 rows) spill to a map.
	smallRunCap = 512
)

// Sort permutes perm so that the w-byte keys it indexes ascend: perm[i]
// names a key by row index, and key p occupies
// keys[p·stride : p·stride+w]. A stride wider than w addresses a window of
// wider rows in place — an index whose key columns are a run of a sample's
// columns sorts straight off the sample's key buffer, sliced from the
// run's first byte. Large inputs fan bucket recursion across a bounded
// worker group.
func Sort(keys []byte, stride, w int, perm []int32) {
	SortWorkers(keys, stride, w, perm, workgroup.Limit(len(perm)/parallelCutoff))
}

// SortWorkers is Sort with an explicit worker-group width (tests and
// benchmarks pin it; workers ≤ 1 is strictly sequential).
func SortWorkers(keys []byte, stride, w int, perm []int32, workers int) {
	run(keys, stride, w, perm, workers, nil)
}

// SortProfile sorts perm like Sort and returns the run-length frequency
// profile of the sorted key sequence — counts[l] distinct keys occupying
// exactly l rows — emitted by the sort itself rather than a second pass.
// The profile is ordered by ascending run length, matching ProfileSorted.
func SortProfile(keys []byte, stride, w int, perm []int32) []distinct.FreqCount {
	return SortProfileWorkers(keys, stride, w, perm, workgroup.Limit(len(perm)/parallelCutoff))
}

// SortProfileWorkers is SortProfile with an explicit worker-group width.
func SortProfileWorkers(keys []byte, stride, w int, perm []int32, workers int) []distinct.FreqCount {
	var g hist
	run(keys, stride, w, perm, workers, &g)
	return g.freqs()
}

// ProfileSorted computes the run-length frequency profile of an
// already-sorted permutation in one adjacent-compare pass, keys addressed
// as in Sort. It serves where no sort happens but a profile is needed: the
// rebuild after merging two sorted runs (PreparedIndex extension), and a
// key chain's shorter members, whose w-byte keys are a prefix of the key
// perm was sorted on — a permutation sorted on a key is sorted on every
// prefix of it.
func ProfileSorted(keys []byte, stride, w int, perm []int32) []distinct.FreqCount {
	if len(perm) == 0 {
		return nil
	}
	var h hist
	if w == 0 {
		h.add(int64(len(perm)))
		return h.freqs()
	}
	run := int64(1)
	for i := 1; i < len(perm); i++ {
		a := int(perm[i-1]) * stride
		b := int(perm[i]) * stride
		if bytes.Equal(keys[a:a+w], keys[b:b+w]) {
			run++
		} else {
			h.add(run)
			run = 1
		}
	}
	h.add(run)
	return h.freqs()
}

// hist is a run-length histogram: small[l] counts runs of length l for
// l ≤ smallRunCap, longer runs spill to the overflow map.
type hist struct {
	small    [smallRunCap + 1]int64
	overflow map[int64]int64
}

func (h *hist) add(runLen int64) {
	if runLen <= smallRunCap {
		h.small[runLen]++
		return
	}
	if h.overflow == nil {
		h.overflow = make(map[int64]int64)
	}
	h.overflow[runLen]++
}

func (h *hist) merge(o *hist) {
	for l, num := range o.small {
		h.small[l] += num
	}
	for l, num := range o.overflow {
		if h.overflow == nil {
			h.overflow = make(map[int64]int64)
		}
		h.overflow[l] += num
	}
}

// freqs materializes the histogram as []distinct.FreqCount ordered by
// ascending run length.
func (h *hist) freqs() []distinct.FreqCount {
	var out []distinct.FreqCount
	for l := int64(1); l <= smallRunCap; l++ {
		if h.small[l] > 0 {
			out = append(out, distinct.FreqCount{Count: l, Num: h.small[l]})
		}
	}
	if len(h.overflow) > 0 {
		long := make([]int64, 0, len(h.overflow))
		for l := range h.overflow {
			long = append(long, l)
		}
		slices.Sort(long)
		for _, l := range long {
			out = append(out, distinct.FreqCount{Count: l, Num: h.overflow[l]})
		}
	}
	return out
}

// sorter carries the shared state of one sort: the key buffer and its
// addressing (key p at keys[p·stride : p·stride+w]), a scratch
// permutation buffer (bucket ranges are disjoint, so concurrent tasks use
// disjoint scratch ranges), the goroutine semaphore, and the global
// profile histogram (nil when only sorting).
type sorter struct {
	keys    []byte
	stride  int
	w       int
	scratch []int32
	sem     workgroup.Sem
	wg      sync.WaitGroup
	mu      sync.Mutex
	global  *hist
	// panicked holds the first panic trapped on a spawned bucket goroutine
	// (as a *faults.PanicError carrying that goroutine's stack); run
	// re-raises it on the calling goroutine after every worker has exited,
	// so a poisoned bucket can never crash the process from a goroutine no
	// caller can recover on — and the scratch buffer is never repooled
	// while a worker still writes to it.
	panicked *faults.PanicError
}

// scratchPool recycles the O(n) distribution scratch across sorts: loops
// that sort repeatedly (bootstrap resamples, adaptive rounds) would
// otherwise pay one permutation-sized allocation per call on a path that
// is zero-alloc everywhere else.
var scratchPool = sync.Pool{New: func() any { return new([]int32) }}

// run sorts perm and, when g is non-nil, accumulates the run-length
// profile into it.
func run(keys []byte, stride, w int, perm []int32, workers int, g *hist) {
	n := len(perm)
	if n == 0 {
		return
	}
	metricRowsSorted.Add(uint64(n))
	if w == 0 {
		// Zero-width keys are all equal: nothing to sort, one run of n.
		if g != nil {
			g.add(int64(n))
		}
		return
	}
	s := &sorter{
		keys:   keys,
		stride: stride,
		w:      w,
		sem:    workgroup.NewSem(workers - 1),
		global: g,
	}
	if n > insertionCutoff {
		// Tiny inputs insertion-sort without a distribution pass, so only
		// real radix runs borrow scratch from the pool.
		sp := scratchPool.Get().(*[]int32)
		if cap(*sp) < n {
			*sp = make([]int32, n)
		}
		s.scratch = (*sp)[:n]
		defer func() {
			*sp = s.scratch
			scratchPool.Put(sp)
		}()
	}
	var local *hist
	if g != nil {
		local = &hist{}
	}
	var inline *faults.PanicError
	func() {
		defer func() {
			if r := recover(); r != nil {
				inline = faults.AsError(r)
			}
		}()
		s.msd(perm, 0, n, 0, local)
	}()
	s.wg.Wait()
	if s.panicked != nil {
		panic(s.panicked)
	}
	if inline != nil {
		panic(inline)
	}
	if g != nil {
		g.merge(local)
	}
}

// spawned runs one bucket's recursion on its own goroutine with a private
// histogram, merged into the global under the mutex when the subtree ends.
func (s *sorter) spawned(perm []int32, lo, hi, depth int) {
	defer s.wg.Done()
	defer s.sem.Release()
	defer func() {
		if r := recover(); r != nil {
			pe := faults.AsError(r)
			s.mu.Lock()
			if s.panicked == nil {
				s.panicked = pe
			}
			s.mu.Unlock()
		}
	}()
	metricParallelBuckets.Inc()
	var h *hist
	if s.global != nil {
		h = &hist{}
	}
	s.msd(perm, lo, hi, depth, h)
	if h != nil {
		s.mu.Lock()
		s.global.merge(h)
		s.mu.Unlock()
	}
}

// msd sorts perm[lo:hi], whose keys agree on bytes [0, depth), by the
// remaining key suffix, adding every completed equal-key run to h (when
// profiling). Runs complete in exactly three places — a bucket exhausting
// the key width, a singleton bucket, and the adjacent-equal runs of an
// insertion-sorted base case — which together tile the final sorted order.
func (s *sorter) msd(perm []int32, lo, hi, depth int, h *hist) {
	keys, stride, w := s.keys, s.stride, s.w
	for {
		n := hi - lo
		switch {
		case n == 0:
			return
		case n == 1:
			if h != nil {
				h.add(1)
			}
			return
		case depth == w:
			// Keys agree on every byte: one run of n equal keys.
			if h != nil {
				h.add(int64(n))
			}
			return
		case n <= insertionCutoff:
			s.insertion(perm, lo, hi, depth)
			if h != nil {
				s.profileRuns(perm, lo, hi, depth, h)
			}
			return
		}

		// 256-way counting pass on the byte column at depth.
		var count [256]int32
		for i := lo; i < hi; i++ {
			count[keys[int(perm[i])*stride+depth]]++
		}
		// Common-prefix shortcut: one populated bucket means this byte
		// column distinguishes nothing — skip it, and every later column
		// the whole bucket agrees on, without a distribution pass. Runs of
		// equal keys (a padded CHAR value drawn many times) would otherwise
		// pay one counting pass per remaining byte.
		if int(count[keys[int(perm[lo])*stride+depth]]) == n {
			depth += 1 + s.commonPrefix(perm, lo, hi, depth+1)
			continue
		}
		var off [256]int32
		var sum int32
		for b := range off {
			off[b] = sum
			sum += count[b]
		}
		scratch := s.scratch
		for i := lo; i < hi; i++ {
			p := perm[i]
			b := keys[int(p)*stride+depth]
			scratch[lo+int(off[b])] = p
			off[b]++
		}
		copy(perm[lo:hi], scratch[lo:hi])

		start := lo
		for b := range count {
			sz := int(count[b])
			if sz == 0 {
				continue
			}
			end := start + sz
			switch {
			case sz == 1:
				if h != nil {
					h.add(1)
				}
			case sz >= parallelCutoff && s.sem.TryAcquire():
				s.wg.Add(1)
				go s.spawned(perm, start, end, depth+1)
			default:
				s.msd(perm, start, end, depth+1, h)
			}
			start = end
		}
		return
	}
}

// commonPrefix returns how many key bytes from depth on every key of
// perm[lo:hi] shares with the first: one pass, a word at a time.
func (s *sorter) commonPrefix(perm []int32, lo, hi, depth int) int {
	keys, stride, w := s.keys, s.stride, s.w
	first := keys[int(perm[lo])*stride+depth : int(perm[lo])*stride+w]
	l := len(first)
	for i := lo + 1; i < hi && l > 0; i++ {
		k := int(perm[i])*stride + depth
		l = mismatch(first[:l], keys[k:k+l])
	}
	return l
}

// mismatch returns the index of the first byte at which a and b, of equal
// length, differ, or their length when they are equal.
func mismatch(a, b []byte) int {
	i := 0
	for ; i+8 <= len(a); i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// insertion sorts perm[lo:hi] by the key suffix from depth (the prefix is
// already equal across the bucket). Each key's next 8 bytes are loaded once
// as a big-endian word, so most comparisons are one integer compare and
// touch no key memory; only keys whose words tie compare the rest.
func (s *sorter) insertion(perm []int32, lo, hi, depth int) {
	keys, stride, w := s.keys, s.stride, s.w
	rest := depth + 8 // the suffix past the cached word
	var words [insertionCutoff]uint64
	n := hi - lo
	for i := 0; i < n; i++ {
		words[i] = s.word(perm[lo+i], depth)
	}
	for i := 1; i < n; i++ {
		p, wp := perm[lo+i], words[i]
		j := i
		for j > 0 {
			q, wq := perm[lo+j-1], words[j-1]
			if wq < wp || wq == wp && (rest >= w ||
				bytes.Compare(keys[int(q)*stride+rest:int(q)*stride+w], keys[int(p)*stride+rest:int(p)*stride+w]) <= 0) {
				break
			}
			perm[lo+j], words[j] = q, wq
			j--
		}
		perm[lo+j], words[j] = p, wp
	}
}

// word returns key p's bytes [depth, depth+8) as a big-endian word, zero
// filled past the key's end: every key has the same width, so words order
// as the bytes they hold.
func (s *sorter) word(p int32, depth int) uint64 {
	k := s.keys[int(p)*s.stride+depth : int(p)*s.stride+s.w]
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var x uint64
	for i, b := range k {
		x |= uint64(b) << (56 - 8*i)
	}
	return x
}

// profileRuns adds the equal-key runs of the sorted range perm[lo:hi] to h,
// comparing only the suffix from depth (the prefix is bucket-equal).
func (s *sorter) profileRuns(perm []int32, lo, hi, depth int, h *hist) {
	keys, stride, w := s.keys, s.stride, s.w
	run := int64(1)
	for i := lo + 1; i < hi; i++ {
		a := int(perm[i-1]) * stride
		b := int(perm[i]) * stride
		if bytes.Equal(keys[a+depth:a+w], keys[b+depth:b+w]) {
			run++
		} else {
			h.add(run)
			run = 1
		}
	}
	h.add(run)
}
