// Package cbase holds helpers shared by the compressor implementations: the
// sparse (indices, values) wire format the paper's sparsify/desparsify API
// describes, and top-k selection by absolute value.
package cbase

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/encode"
)

// EncodeSparse serializes selected (index, value) pairs:
// [index block (delta varint)] [values, 4 bytes each]. Pairs must have
// distinct indices. Ascending input, which every selector in this repository
// emits, is encoded as is, checked in one pass; otherwise the pairs are first
// sorted by index in place, mutating idx and vals. The payload is the only
// allocation, sized exactly.
func EncodeSparse(idx []int, vals []float32) []byte {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("cbase: %d indices vs %d values", len(idx), len(vals)))
	}
	if !encode.Increasing(idx) {
		encode.SortByIndex(idx, vals)
	}
	block := encode.IndicesLen(idx)
	buf := make([]byte, 0, encode.UvarintLen(uint64(block))+block+4*len(vals))
	buf = binary.AppendUvarint(buf, uint64(block))
	buf = encode.AppendIndices(buf, idx)
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// DecodeSparse reconstructs a dense vector of the given size from
// EncodeSparse output, filling unselected positions with zero (the paper's
// desparsify).
func DecodeSparse(buf []byte, size int) ([]float32, error) {
	out := make([]float32, size)
	if err := DecodeSparseInto(buf, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeSparseInto is the allocation-free form of DecodeSparse: it zeroes
// dst and scatters the decoded (index, value) pairs into it, reading each
// index delta beside its value. len(dst) is the dense size. Indices must be
// strictly increasing and inside dst; on error dst holds a partial decode.
func DecodeSparseInto(buf []byte, dst []float32) error {
	blockLen, n := binary.Uvarint(buf)
	if n <= 0 {
		return errors.New("cbase: bad sparse index block length")
	}
	buf = buf[n:]
	if blockLen > uint64(len(buf)) {
		return fmt.Errorf("cbase: sparse index block of %d bytes exceeds remaining %d", blockLen, len(buf))
	}
	block, vals := buf[:blockLen], buf[blockLen:]
	idx, err := encode.NewIndexReader(block)
	if err != nil {
		return err
	}
	count := idx.Len()
	if count > len(vals)/4 {
		return fmt.Errorf("cbase: %d sparse values need %d bytes, have %d", count, 4*count, len(vals))
	}
	clear(dst)
	for j := 0; j < count; j++ {
		i, err := idx.Next()
		if err != nil {
			return err
		}
		if i >= len(dst) {
			return fmt.Errorf("cbase: sparse index %d out of size %d", i, len(dst))
		}
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(vals[4*j:]))
	}
	return nil
}

func abs(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// QuantileAbsThreshold estimates the |g| threshold above which roughly
// ratio·len(g) elements fall, using a sorted sample of at most sampleCap
// elements (DGC's sampling-based threshold estimation [16], [49]).
func QuantileAbsThreshold(g []float32, ratio float64, sampleCap int, stride int) float32 {
	if len(g) == 0 || ratio >= 1 {
		return 0
	}
	if stride < 1 {
		stride = 1
	}
	sample := make([]float32, 0, sampleCap)
	for i := 0; i < len(g) && len(sample) < sampleCap; i += stride {
		sample = append(sample, abs(g[i]))
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	pos := int(float64(len(sample)) * (1 - ratio))
	if pos >= len(sample) {
		pos = len(sample) - 1
	}
	if pos < 0 {
		pos = 0
	}
	return sample[pos]
}

// KFor returns the selection count for a sparsification ratio over d
// elements, never below 1.
func KFor(ratio float64, d int) int {
	k := int(ratio * float64(d))
	if k < 1 {
		k = 1
	}
	if k > d {
		k = d
	}
	return k
}
