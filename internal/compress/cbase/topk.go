package cbase

import (
	"math"
	"sync"
)

// Top-k selection ranks elements by key = float32 bits with the sign bit
// cleared. For every non-NaN float32 the key orders exactly like |g|; NaNs
// rank above +Inf, ordered by their bit patterns, and -0 ties +0. Among equal
// keys the lowest index wins, so the selected set is a pure function of g
// and k.
const absMask = 0x7fffffff

// The key's 31 bits are resolved in three radix levels, most significant
// first: bits 30..20, 19..9 and 8..0.
const (
	topShift = 20
	histLen  = 1 << 11
)

var refineLevels = [...]struct{ shift, width uint }{{9, 11}, {0, 9}}

// selector is the scratch of one exact selection. Compressors are shared by
// every rank and lane of a process, so the scratch lives in a pool, not in a
// compressor.
type selector struct {
	hist [histLen]int
	idx  []int     // indices in or above the boundary bucket, ascending
	keys []uint32  // keys inside the boundary bucket, during refinement
	vals []float32 // the selected values, for EncodeTopK
}

var selectors = sync.Pool{New: func() any { return new(selector) }}

// TopK returns the indices of the k elements of g with the largest absolute
// values (k clamped to [1, len(g)] for non-empty g) in ascending order. Ties
// at the k-th magnitude go to the lowest indices; NaN ranks above +Inf.
// Selection is an exact radix select in two passes over g.
func TopK(g []float32, k int) []int {
	if len(g) == 0 {
		return nil
	}
	s := selectors.Get().(*selector)
	defer selectors.Put(s)
	return append([]int(nil), s.topK(g, clampK(k, len(g)))...)
}

// EncodeTopK selects TopK(g, k) and serializes it in EncodeSparse's wire
// format. The payload is its only allocation.
func EncodeTopK(g []float32, k int) []byte {
	if len(g) == 0 {
		return EncodeSparse(nil, nil)
	}
	s := selectors.Get().(*selector)
	defer selectors.Put(s)
	idx := s.topK(g, clampK(k, len(g)))
	vals := s.vals[:0]
	for _, i := range idx {
		vals = append(vals, g[i])
	}
	s.vals = vals
	return EncodeSparse(idx, vals)
}

func clampK(k, d int) int {
	return min(max(k, 1), d)
}

// topK returns the selection for 1 <= k <= len(g), ascending, in s's scratch.
//
// Pass one histograms the top 11 key bits and finds the bucket holding the
// k-th largest key. Pass two collects, in index order, every element whose
// key falls in or above that bucket, about k plus one bucket's share of g.
// The exact k-th key t is then resolved among the boundary bucket's keys,
// 11 and 9 bits at a time, which also yields how many elements equal to t
// to take. A last pass over the collected indices keeps every key above t
// and the lowest-indexed ties at t, so the output stays ascending.
func (s *selector) topK(g []float32, k int) []int {
	h := s.hist[:]
	clear(h)
	for _, v := range g {
		h[(math.Float32bits(v)&absMask)>>topShift]++
	}
	b, need := boundary(h, k)
	t := uint32(b) << topShift
	idx := s.idx[:0]
	for i, v := range g {
		if math.Float32bits(v)&absMask >= t {
			idx = append(idx, i)
		}
	}

	keys := s.keys[:0]
	for _, i := range idx {
		if key := math.Float32bits(g[i]) & absMask; key>>topShift == uint32(b) {
			keys = append(keys, key)
		}
	}
	for _, lv := range refineLevels {
		mask := uint32(1)<<lv.width - 1
		h := s.hist[:1<<lv.width]
		clear(h)
		for _, key := range keys {
			h[key>>lv.shift&mask]++
		}
		var c int
		c, need = boundary(h, need)
		t |= uint32(c) << lv.shift
		n := 0
		for _, key := range keys {
			if key>>lv.shift&mask == uint32(c) {
				keys[n] = key
				n++
			}
		}
		keys = keys[:n]
	}
	s.keys = keys

	n := 0
	for _, i := range idx {
		key := math.Float32bits(g[i]) & absMask
		if key > t || key == t && need > 0 {
			if key == t {
				need--
			}
			idx[n] = i
			n++
		}
	}
	s.idx = idx
	return idx[:n]
}

// boundary scans histogram h from its top bucket down and returns the bucket
// holding the k-th largest element together with how many elements of that
// bucket the top k take (at least 1). k must not exceed the sum of h.
func boundary(h []int, k int) (bucket, take int) {
	for c := len(h) - 1; c > 0; c-- {
		if h[c] >= k {
			return c, k
		}
		k -= h[c]
	}
	return 0, k
}
