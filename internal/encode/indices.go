package encode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// EncodeIndices delta-varint encodes a strictly increasing index list. Sparse
// compressors (Top-k, Random-k, DGC, ...) transmit the positions of selected
// gradient elements; delta+LEB128 coding makes dense selections cost ~1 byte
// per index instead of 4.
//
// The input need not be sorted: since the positions of a sparse tensor are a
// set, unsorted input is encoded from a sorted copy. Ascending input, which
// every selector in this repository emits, is encoded without copying. It
// panics on duplicate indices.
func EncodeIndices(idx []int) []byte {
	if !Increasing(idx) {
		sorted := append([]int(nil), idx...)
		sort.Ints(sorted)
		idx = sorted
	}
	return AppendIndices(make([]byte, 0, IndicesLen(idx)), idx)
}

// Increasing reports whether idx is strictly increasing, the order the index
// coding requires. It costs one pass, against the O(k log k) of sorting.
func Increasing(idx []int) bool {
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			return false
		}
	}
	return true
}

// IndicesLen returns the exact length of EncodeIndices' output for a strictly
// increasing idx, so a caller can size one buffer for a whole message.
func IndicesLen(idx []int) int {
	n := UvarintLen(uint64(len(idx)))
	prev := -1
	for _, v := range idx {
		n += UvarintLen(uint64(v - prev))
		prev = v
	}
	return n
}

// AppendIndices appends the EncodeIndices form of idx to dst. idx must be
// strictly increasing and non-negative; it panics otherwise.
func AppendIndices(dst []byte, idx []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(idx)))
	prev := -1
	for _, v := range idx {
		if v <= prev {
			panic(fmt.Sprintf("encode: index %d after %d: duplicate or not increasing", v, prev))
		}
		dst = binary.AppendUvarint(dst, uint64(v-prev))
		prev = v
	}
	return dst
}

// UvarintLen returns the number of bytes Writer.Uvarint spends on v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// IndexReader streams the indices of an EncodeIndices block in order,
// without building an index slice.
type IndexReader struct {
	buf  []byte
	left int
	prev int
}

// NewIndexReader starts reading an EncodeIndices block.
func NewIndexReader(block []byte) (IndexReader, error) {
	n, w := binary.Uvarint(block)
	if w <= 0 {
		return IndexReader{}, errors.New("encode: bad index count")
	}
	block = block[w:]
	if n > uint64(len(block)) { // every delta costs at least one byte
		return IndexReader{}, fmt.Errorf("encode: implausible index count %d for %d-byte block", n, len(block))
	}
	return IndexReader{buf: block, left: int(n), prev: -1}, nil
}

// Len returns the number of indices not yet read.
func (r *IndexReader) Len() int { return r.left }

// Next returns the next index. Valid encoders never emit a zero delta, so one
// is rejected as a repeated index, and so is a delta that overflows int.
func (r *IndexReader) Next() (int, error) {
	if r.left == 0 {
		return 0, errors.New("encode: read past the last index")
	}
	d, w := binary.Uvarint(r.buf)
	if w <= 0 {
		return 0, fmt.Errorf("encode: bad index delta after index %d", r.prev)
	}
	r.buf = r.buf[w:]
	r.left--
	if d == 0 {
		return 0, fmt.Errorf("encode: index %d repeated: indices must be strictly increasing", r.prev)
	}
	// prev >= -1, so prev+1 >= 0 and MaxInt-(prev+1) cannot overflow.
	if d-1 > uint64(math.MaxInt-(r.prev+1)) {
		return 0, fmt.Errorf("encode: index delta %d after %d overflows", d, r.prev)
	}
	r.prev += int(d)
	return r.prev, nil
}

// DecodeIndices reverses EncodeIndices, returning the sorted index list. It
// rejects a list that is not strictly increasing.
func DecodeIndices(buf []byte) ([]int, error) {
	r, err := NewIndexReader(buf)
	if err != nil {
		return nil, err
	}
	out := make([]int, r.Len())
	for i := range out {
		if out[i], err = r.Next(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SortByIndex sorts (idx, vals) pairs by ascending index in place. Sparse
// compressors that select (index, value) pairs in arbitrary order use it
// before encoding, since the wire format requires sorted indices for delta
// coding.
func SortByIndex(idx []int, vals []float32) {
	if len(idx) != len(vals) {
		panic("encode: SortByIndex length mismatch")
	}
	sort.Sort(&pairSlice{idx, vals})
}

type pairSlice struct {
	idx  []int
	vals []float32
}

func (p *pairSlice) Len() int           { return len(p.idx) }
func (p *pairSlice) Less(i, j int) bool { return p.idx[i] < p.idx[j] }
func (p *pairSlice) Swap(i, j int) {
	p.idx[i], p.idx[j] = p.idx[j], p.idx[i]
	p.vals[i], p.vals[j] = p.vals[j], p.vals[i]
}
