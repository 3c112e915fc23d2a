package cbase

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/fxrand"
)

func TestEncodeDecodeSparseRoundTrip(t *testing.T) {
	idx := []int{7, 2, 99}
	vals := []float32{0.7, 0.2, 9.9}
	dense, err := DecodeSparse(EncodeSparse(idx, vals), 100)
	if err != nil {
		t.Fatal(err)
	}
	if dense[2] != 0.2 || dense[7] != 0.7 || dense[99] != 9.9 {
		t.Fatalf("round trip wrong: %v %v %v", dense[2], dense[7], dense[99])
	}
	nz := 0
	for _, v := range dense {
		if v != 0 {
			nz++
		}
	}
	if nz != 3 {
		t.Fatalf("%d non-zeros, want 3", nz)
	}
}

func TestEncodeSparseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EncodeSparse([]int{1}, []float32{1, 2})
}

func TestDecodeSparseOutOfRange(t *testing.T) {
	buf := EncodeSparse([]int{5}, []float32{1})
	if _, err := DecodeSparse(buf, 3); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestSparseProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%500) + 10
		r := fxrand.New(seed)
		k := r.Intn(n) + 1
		idx := r.Sample(n, k)
		vals := make([]float32, k)
		for i := range vals {
			vals[i] = r.NormFloat32()
		}
		// Keep reference copies; EncodeSparse mutates its arguments.
		refIdx := append([]int(nil), idx...)
		refVals := append([]float32(nil), vals...)
		dense, err := DecodeSparse(EncodeSparse(idx, vals), n)
		if err != nil {
			return false
		}
		for i, j := range refIdx {
			if dense[j] != refVals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKSelectsLargestMagnitudes(t *testing.T) {
	g := []float32{0.1, -5, 3, -0.2, 4, 0}
	idx := TopK(g, 3)
	sort.Ints(idx)
	want := []int{1, 2, 4}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("TopK got %v want %v", idx, want)
		}
	}
}

func TestTopKClamps(t *testing.T) {
	g := []float32{1, 2}
	if len(TopK(g, 0)) != 1 {
		t.Fatal("k<1 should clamp to 1")
	}
	if len(TopK(g, 99)) != 2 {
		t.Fatal("k>d should clamp to d")
	}
	if TopK(nil, 3) != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestTopKProperty(t *testing.T) {
	// Every selected element's magnitude must be >= every unselected one's.
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%200) + 1
		k := int(kRaw)%n + 1
		r := fxrand.New(seed)
		g := make([]float32, n)
		for i := range g {
			g[i] = r.NormFloat32()
		}
		idx := TopK(g, k)
		if len(idx) != k {
			return false
		}
		selected := make(map[int]bool, k)
		minSel := math.Inf(1)
		for _, i := range idx {
			if selected[i] {
				return false // duplicate
			}
			selected[i] = true
			if a := math.Abs(float64(g[i])); a < minSel {
				minSel = a
			}
		}
		for i, v := range g {
			if !selected[i] && math.Abs(float64(v)) > minSel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileAbsThreshold(t *testing.T) {
	// On a large uniform sample the threshold for ratio r should sit near
	// the (1-r) quantile of |g|.
	r := fxrand.New(3)
	g := make([]float32, 10000)
	for i := range g {
		g[i] = r.Float32()*2 - 1
	}
	th := QuantileAbsThreshold(g, 0.1, 4096, 1)
	if th < 0.8 || th > 0.95 {
		t.Fatalf("threshold %v, want ~0.9 for 10%% of U(-1,1)", th)
	}
	selected := 0
	for _, v := range g {
		if math.Abs(float64(v)) >= float64(th) {
			selected++
		}
	}
	ratio := float64(selected) / float64(len(g))
	if ratio < 0.05 || ratio > 0.2 {
		t.Fatalf("threshold selects %v, want ~0.1", ratio)
	}
}

func TestQuantileAbsThresholdEdges(t *testing.T) {
	if QuantileAbsThreshold(nil, 0.5, 100, 1) != 0 {
		t.Fatal("empty input should give 0")
	}
	if QuantileAbsThreshold([]float32{1, 2}, 1.0, 100, 1) != 0 {
		t.Fatal("ratio >= 1 should give 0 (select everything)")
	}
}

func TestKFor(t *testing.T) {
	if KFor(0.01, 100) != 1 || KFor(0.5, 100) != 50 || KFor(0.0001, 100) != 1 || KFor(2, 100) != 100 {
		t.Fatal("KFor clamping wrong")
	}
}

// dupIndexPayload is a hand-built sparse payload whose second index delta is
// zero: index 2 twice. Valid encoders never emit it.
var dupIndexPayload = []byte{
	3,       // index block length
	2, 3, 0, // count 2, deltas 3 (index 2) and 0 (index 2 again)
	0, 0, 0x80, 0x3f, // 1.0
	0, 0, 0, 0x40, // 2.0
}

func TestDecodeSparseRejectsDuplicateIndex(t *testing.T) {
	if _, err := DecodeSparse(dupIndexPayload, 8); err == nil {
		t.Fatal("duplicate index decoded without error")
	}
	if err := DecodeSparseInto(dupIndexPayload, make([]float32, 8)); err == nil {
		t.Fatal("DecodeSparseInto accepted a duplicate index")
	}
	// The same payload with a non-zero second delta is valid.
	ok := append([]byte(nil), dupIndexPayload...)
	ok[3] = 1
	dense, err := DecodeSparse(ok, 8)
	if err != nil || dense[2] != 1 || dense[3] != 2 {
		t.Fatalf("valid payload: %v, err %v", dense, err)
	}
}

func TestDecodeSparseRejectsTruncated(t *testing.T) {
	buf := EncodeSparse([]int{1, 4}, []float32{1, 2})
	for n := 0; n < len(buf); n++ {
		if err := DecodeSparseInto(buf[:n], make([]float32, 8)); err == nil {
			t.Fatalf("accepted a payload truncated to %d of %d bytes", n, len(buf))
		}
	}
}

func TestSparseAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const d = 294912
	r := fxrand.New(7)
	g := make([]float32, d)
	for i := range g {
		g[i] = r.NormFloat32()
	}
	k := KFor(0.01, d)
	var buf []byte
	if a := testing.AllocsPerRun(20, func() { buf = EncodeTopK(g, k) }); a > 1 {
		t.Fatalf("EncodeTopK at d=%d made %v allocations, want at most 1 (the payload)", d, a)
	}
	dst := make([]float32, d)
	if a := testing.AllocsPerRun(20, func() {
		if err := DecodeSparseInto(buf, dst); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("DecodeSparseInto made %v allocations, want 0", a)
	}
}
