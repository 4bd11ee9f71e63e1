package sortkeys

import (
	"bytes"
	"sort"
	"testing"

	"samplecf/internal/distinct"
	"samplecf/internal/rng"
)

// refSorter is the pre-radix implementation (core's arenaSorter): a
// concrete sort.Interface comparing whole fixed-width keys. The property
// tests treat it as the oracle the radix sort must match key-for-key.
type refSorter struct {
	keys []byte
	w    int
	perm []int32
}

func (s *refSorter) Len() int { return len(s.perm) }
func (s *refSorter) Less(i, j int) bool {
	a := int(s.perm[i]) * s.w
	b := int(s.perm[j]) * s.w
	return bytes.Compare(s.keys[a:a+s.w], s.keys[b:b+s.w]) < 0
}
func (s *refSorter) Swap(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] }

// refSortProfile runs the oracle pipeline: comparison sort, then the
// separate adjacent-compare profiling pass the old prepare stage paid.
func refSortProfile(keys []byte, w int, perm []int32) []distinct.FreqCount {
	sort.Sort(&refSorter{keys: keys, w: w, perm: perm})
	return ProfileSorted(keys, w, w, perm)
}

func identity(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// checkAgainstRef asserts the radix sort at every worker width produces a
// valid permutation whose key sequence and run-length profile are
// byte-identical to the oracle's.
func checkAgainstRef(t *testing.T, keys []byte, w, n int) {
	t.Helper()
	refPerm := identity(n)
	wantProfile := refSortProfile(keys, w, refPerm)
	for _, workers := range []int{1, 2, 3, 8} {
		perm := identity(n)
		got := SortProfileWorkers(keys, w, w, perm, workers)
		if len(perm) != n {
			t.Fatalf("workers=%d: perm length %d, want %d", workers, len(perm), n)
		}
		seen := make([]bool, n)
		for _, p := range perm {
			if p < 0 || int(p) >= n || seen[p] {
				t.Fatalf("workers=%d: perm is not a permutation (index %d)", workers, p)
			}
			seen[p] = true
		}
		for i := 0; i < n; i++ {
			a := int(perm[i]) * w
			b := int(refPerm[i]) * w
			if !bytes.Equal(keys[a:a+w], keys[b:b+w]) {
				t.Fatalf("workers=%d: key sequence diverges from sort.Sort oracle at position %d", workers, i)
			}
		}
		if len(got) != len(wantProfile) {
			t.Fatalf("workers=%d: profile has %d classes, oracle %d: %v vs %v",
				workers, len(got), len(wantProfile), got, wantProfile)
		}
		for i := range got {
			if got[i] != wantProfile[i] {
				t.Fatalf("workers=%d: profile class %d = %+v, oracle %+v", workers, i, got[i], wantProfile[i])
			}
		}
		// Sort alone must produce the same key order as SortProfile.
		perm2 := identity(n)
		SortWorkers(keys, w, w, perm2, workers)
		for i := 0; i < n; i++ {
			a := int(perm2[i]) * w
			b := int(perm[i]) * w
			if !bytes.Equal(keys[a:a+w], keys[b:b+w]) {
				t.Fatalf("workers=%d: Sort and SortProfile key orders diverge at %d", workers, i)
			}
		}
	}
}

// genKeys builds n w-byte keys drawing each from d distinct values; near
// sorted inputs start ordered and swap a few pairs.
func genKeys(g *rng.RNG, n, w int, d int64, nearSorted bool) []byte {
	vals := make([][]byte, d)
	for i := range vals {
		v := make([]byte, w)
		for j := range v {
			v[j] = byte(g.Intn(256))
		}
		vals[i] = v
	}
	if nearSorted {
		sort.Slice(vals, func(i, j int) bool { return bytes.Compare(vals[i], vals[j]) < 0 })
	}
	keys := make([]byte, 0, n*w)
	for i := 0; i < n; i++ {
		var v []byte
		if nearSorted {
			v = vals[(i*int(d))/n]
		} else {
			v = vals[g.Intn(int(d))]
		}
		keys = append(keys, v...)
	}
	return keys
}

func TestSortProfileMatchesReference(t *testing.T) {
	g := rng.New(7)
	for _, w := range []int{1, 3, 8, 20, 64} {
		for _, n := range []int{0, 1, 2, 17, 100, 1000, 20000} {
			for _, tc := range []struct {
				name       string
				d          int64
				nearSorted bool
			}{
				{"dup-heavy", 5, false},
				{"moderate", 64, false},
				{"unique-ish", int64(n) + 1, false},
				{"near-sorted", 32, true},
			} {
				if tc.d < 1 {
					tc.d = 1
				}
				keys := genKeys(g, n, w, tc.d, tc.nearSorted)
				t.Run("", func(t *testing.T) {
					checkAgainstRef(t, keys, w, n)
				})
			}
		}
	}
}

func TestSortProfileAllEqual(t *testing.T) {
	const n, w = 5000, 12
	keys := bytes.Repeat([]byte{0xAB}, n*w)
	checkAgainstRef(t, keys, w, n)
	perm := identity(n)
	freqs := SortProfile(keys, w, w, perm)
	if len(freqs) != 1 || freqs[0].Count != n || freqs[0].Num != 1 {
		t.Fatalf("all-equal profile = %+v, want one run of %d", freqs, n)
	}
}

func TestSortZeroWidth(t *testing.T) {
	perm := identity(4)
	freqs := SortProfile(nil, 0, 0, perm)
	if len(freqs) != 1 || freqs[0].Count != 4 || freqs[0].Num != 1 {
		t.Fatalf("zero-width profile = %+v, want one run of 4", freqs)
	}
}

// TestSortLongRunsOverflow drives run lengths past smallRunCap so the
// overflow map path and its ascending merge are exercised.
func TestSortLongRunsOverflow(t *testing.T) {
	const w = 4
	var keys []byte
	// 700 copies of key A, 600 of key B, 3 of key C.
	for i, cnt := range []int{700, 600, 3} {
		k := []byte{byte(i), 0xFF, 0x00, byte(i)}
		for j := 0; j < cnt; j++ {
			keys = append(keys, k...)
		}
	}
	n := len(keys) / w
	checkAgainstRef(t, keys, w, n)
	perm := identity(n)
	freqs := SortProfile(keys, w, w, perm)
	want := []distinct.FreqCount{{Count: 3, Num: 1}, {Count: 600, Num: 1}, {Count: 700, Num: 1}}
	if len(freqs) != len(want) {
		t.Fatalf("profile = %+v, want %+v", freqs, want)
	}
	for i := range want {
		if freqs[i] != want[i] {
			t.Fatalf("profile = %+v, want %+v", freqs, want)
		}
	}
}

// TestSortParallelDeterminism re-sorts the same input at several worker
// widths and checks the emitted key sequence and profile never vary —
// worker interleaving must be unobservable.
func TestSortParallelDeterminism(t *testing.T) {
	g := rng.New(99)
	const n, w = 50000, 16
	keys := genKeys(g, n, w, 200, false)
	base := identity(n)
	baseProfile := SortProfileWorkers(keys, w, w, base, 1)
	for trial := 0; trial < 3; trial++ {
		for _, workers := range []int{2, 4, 8} {
			perm := identity(n)
			profile := SortProfileWorkers(keys, w, w, perm, workers)
			for i := 0; i < n; i++ {
				a := int(perm[i]) * w
				b := int(base[i]) * w
				if !bytes.Equal(keys[a:a+w], keys[b:b+w]) {
					t.Fatalf("workers=%d trial %d: key sequence varies at %d", workers, trial, i)
				}
			}
			if len(profile) != len(baseProfile) {
				t.Fatalf("workers=%d trial %d: profile varies", workers, trial)
			}
			for i := range profile {
				if profile[i] != baseProfile[i] {
					t.Fatalf("workers=%d trial %d: profile varies at class %d", workers, trial, i)
				}
			}
		}
	}
}
