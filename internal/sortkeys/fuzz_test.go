package sortkeys

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzSortProfile feeds arbitrary byte soup through the radix sort at
// several worker widths and cross-checks the permutation's key sequence
// and fused profile against the sort.Sort oracle. The soup is read as
// rows of a stride at least the key width, the key a window at an offset
// within each row — the layout of an index whose key columns are a run of
// a wider sample's columns — and the oracle sorts a contiguous copy of
// the windows. A prefix of the key checks the chain rule: the permutation
// sorted on the key, profiled by ProfileSorted on the prefix, must match
// the oracle run on the prefix alone. The corpus seeds cover the
// structural edge cases; CI runs a short -fuzztime smoke on top.
func FuzzSortProfile(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(0), uint8(0))
	f.Add([]byte{0x00}, uint8(1), uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0x7F}, 64), uint8(4), uint8(0), uint8(0))
	f.Add([]byte("abcabcabcabcabcabc"), uint8(3), uint8(0), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(8), uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF, 0x00}, 600), uint8(2), uint8(0), uint8(0))
	f.Add([]byte("aXbaYbaXcaYcbXabYa"), uint8(2), uint8(1), uint8(1))
	f.Add(bytes.Repeat([]byte{0x10, 0x20, 0x30, 0x40, 0x10, 0x21, 0x30}, 90), uint8(3), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, widthSeed, padSeed, offSeed uint8) {
		w := int(widthSeed%16) + 1
		stride := w + int(padSeed%8)
		off := int(offSeed) % (stride - w + 1)
		n := len(data) / stride
		var keys []byte
		if n > 0 {
			keys = data[off:]
		}
		flat := make([]byte, 0, n*w)
		for p := 0; p < n; p++ {
			flat = append(flat, keys[p*stride:p*stride+w]...)
		}
		key := func(p int32) []byte { return keys[int(p)*stride : int(p)*stride+w] }

		refPerm := identity(n)
		wantProfile := refSortProfile(flat, w, refPerm)
		for _, workers := range []int{1, 3} {
			perm := identity(n)
			got := SortProfileWorkers(keys, stride, w, perm, workers)
			seen := make([]bool, n)
			for _, p := range perm {
				if p < 0 || int(p) >= n || seen[p] {
					t.Fatalf("workers=%d: not a permutation (index %d)", workers, p)
				}
				seen[p] = true
			}
			for i := 0; i < n; i++ {
				b := int(refPerm[i]) * w
				if !bytes.Equal(key(perm[i]), flat[b:b+w]) {
					t.Fatalf("workers=%d: key sequence diverges from oracle at %d", workers, i)
				}
			}
			if !slices.Equal(got, wantProfile) {
				t.Fatalf("workers=%d: profile %v, oracle %v", workers, got, wantProfile)
			}
			if sorted := ProfileSorted(keys, stride, w, perm); !slices.Equal(sorted, wantProfile) {
				t.Fatalf("workers=%d: ProfileSorted %v, oracle %v", workers, sorted, wantProfile)
			}
		}

		// The chain rule, on the key's first wp bytes.
		wp := 1 + int(widthSeed/16)%w
		prefix := make([]byte, 0, n*wp)
		for p := 0; p < n; p++ {
			prefix = append(prefix, keys[p*stride:p*stride+wp]...)
		}
		wantPrefix := refSortProfile(prefix, wp, identity(n))
		perm := identity(n)
		SortWorkers(keys, stride, w, perm, 1)
		if got := ProfileSorted(keys, stride, wp, perm); !slices.Equal(got, wantPrefix) {
			t.Fatalf("prefix of %d bytes: profile %v, oracle %v", wp, got, wantPrefix)
		}
	})
}
