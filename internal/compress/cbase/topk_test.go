package cbase

import (
	"bytes"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/encode"
	"repro/internal/fxrand"
)

// refTopK is the specification TopK must meet: sort every index by |g|
// descending, then index ascending, take the first k and return them in
// ascending order. NaN ranks above +Inf, NaNs among themselves by bit
// pattern (sign ignored), and -0 ties +0.
func refTopK(g []float32, k int) []int {
	order := make([]int, len(g))
	for i := range order {
		order[i] = i
	}
	greater := func(a, b float32) bool { // |a| ranks above |b|
		aNaN, bNaN := a != a, b != b
		switch {
		case aNaN && bNaN:
			return math.Float32bits(a)&absMask > math.Float32bits(b)&absMask
		case aNaN || bNaN:
			return aNaN
		}
		return math.Abs(float64(a)) > math.Abs(float64(b))
	}
	sort.SliceStable(order, func(x, y int) bool { return greater(g[order[x]], g[order[y]]) })
	sel := append([]int(nil), order[:k]...)
	sort.Ints(sel)
	return sel
}

func TestTopKMatchesReferenceSort(t *testing.T) {
	posNaN := math.Float32frombits(0x7fc00000)
	bigNaN := math.Float32frombits(0x7fc00001)
	negNaN := math.Float32frombits(0xffc00000)
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{0, negZero, inf, -inf, posNaN, bigNaN, negNaN, 1, -1, 0.5, -0.5}
	r := fxrand.New(11)
	for trial := 0; trial < 300; trial++ {
		d := 1 + r.Intn(300)
		if trial%50 == 0 {
			d = 5000 + r.Intn(5000) // enough elements to fill several histogram buckets
		}
		g := make([]float32, d)
		for i := range g {
			switch r.Intn(4) {
			case 0: // forced ties: a handful of repeated magnitudes, both signs
				g[i] = float32(r.Intn(4)) * 0.25
				if r.Intn(2) == 0 {
					g[i] = -g[i]
				}
			case 1:
				g[i] = specials[r.Intn(len(specials))]
			default:
				g[i] = r.NormFloat32()
			}
		}
		ks := []int{1, d - 1, d, 1 + r.Intn(d)}
		for _, k := range ks {
			if k < 1 {
				continue
			}
			got := TopK(g, k)
			want := refTopK(g, k)
			if len(got) != len(want) {
				t.Fatalf("d=%d k=%d: %d indices, want %d", d, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("d=%d k=%d: got %v, want %v", d, k, got, want)
				}
			}
			if !encode.Increasing(got) {
				t.Fatalf("d=%d k=%d: output not strictly ascending: %v", d, k, got)
			}
		}
	}
}

// TestTopKOrderPinned pins the documented order: NaN above +Inf (NaNs by bit
// pattern, sign ignored), +Inf and -Inf tied, -0 tied with +0, and ties
// broken toward the lowest index.
func TestTopKOrderPinned(t *testing.T) {
	nan := func(bits uint32) float32 { return math.Float32frombits(bits) }
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	cases := []struct {
		g    []float32
		k    int
		want []int
	}{
		{[]float32{inf, nan(0x7fc00000), 1}, 1, []int{1}},
		{[]float32{nan(0x7fc00000), nan(0xffc00001), inf}, 1, []int{1}},
		{[]float32{nan(0x7fc00000), inf, nan(0x7fc00001)}, 2, []int{0, 2}},
		{[]float32{-inf, 5, inf}, 1, []int{0}},
		{[]float32{negZero, 0, negZero}, 2, []int{0, 1}},
		{[]float32{3, -3, 3, 1}, 2, []int{0, 1}},
		{[]float32{1, -2, 2, -2}, 2, []int{1, 2}},
	}
	for _, c := range cases {
		got := TopK(c.g, c.k)
		if len(got) != len(c.want) {
			t.Fatalf("TopK(%v, %d) = %v, want %v", c.g, c.k, got, c.want)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("TopK(%v, %d) = %v, want %v", c.g, c.k, got, c.want)
			}
		}
	}
}

// TestEncodeTopKWireFormatPinned checks, at a production tensor size, that
// the fused select-and-encode path and EncodeSparse both emit exactly the
// bytes the original format defines: uvarint(len(block)), the EncodeIndices
// block, then the values as little-endian float32, built here by hand from
// an unsorted copy of the selection.
func TestEncodeTopKWireFormatPinned(t *testing.T) {
	const d = 294912
	r := fxrand.New(95)
	g := make([]float32, d)
	for i := range g {
		g[i] = r.NormFloat32()
	}
	for _, k := range []int{KFor(0.01, d), KFor(0.1, d)} {
		sel := TopK(g, k)
		shuffled := append([]int(nil), sel...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		w := encode.NewWriter(0)
		w.BytesSlice(encode.EncodeIndices(shuffled))
		for _, i := range sel {
			w.F32(g[i])
		}
		want := w.Bytes()

		sortedVals := make([]float32, len(sel))
		for j, i := range sel {
			sortedVals[j] = g[i]
		}
		shuffledVals := make([]float32, len(shuffled))
		for j, i := range shuffled {
			shuffledVals[j] = g[i]
		}
		for _, c := range []struct {
			name string
			got  []byte
		}{
			{"EncodeTopK", EncodeTopK(g, k)},
			{"EncodeSparse(ascending)", EncodeSparse(sel, sortedVals)},
			{"EncodeSparse(shuffled)", EncodeSparse(shuffled, shuffledVals)},
		} {
			if !bytes.Equal(c.got, want) {
				t.Fatalf("k=%d: %s emitted %d bytes differing from the %d-byte reference payload", k, c.name, len(c.got), len(want))
			}
			if cap(c.got) != len(c.got) {
				t.Fatalf("k=%d: %s payload has capacity %d for %d bytes, want exact", k, c.name, cap(c.got), len(c.got))
			}
		}
	}
}

// TestEncodeTopKConcurrent shares the pooled selector scratch between
// goroutines, as ranks and codec lanes sharing one compressor do; each
// payload must match the one computed alone.
func TestEncodeTopKConcurrent(t *testing.T) {
	const workers, d = 4, 20000
	inputs := make([][]float32, workers)
	want := make([][]byte, workers)
	for w := range inputs {
		r := fxrand.New(uint64(100 + w))
		inputs[w] = make([]float32, d)
		for i := range inputs[w] {
			inputs[w][i] = r.NormFloat32()
		}
		want[w] = EncodeTopK(inputs[w], 200+w)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				if got := EncodeTopK(inputs[w], 200+w); !bytes.Equal(got, want[w]) {
					t.Errorf("worker %d round %d: payload differs from the serial one", w, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
