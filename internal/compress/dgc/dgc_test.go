package dgc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fxrand"
	"repro/internal/grace"
)

func TestSelectionCountNearTarget(t *testing.T) {
	c, err := grace.New("dgc", grace.Options{Ratio: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	r := fxrand.New(1)
	const d = 4000
	g := make([]float32, d)
	for i := range g {
		g[i] = r.NormFloat32()
	}
	info := grace.NewTensorInfo("t", []int{d})
	p, err := c.Compress(g, info)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := c.Decompress(p, info)
	nz := 0
	for _, v := range out {
		if v != 0 {
			nz++
		}
	}
	// The sampled threshold targets 5%; the hierarchical refinement caps
	// overshoot at 2x.
	if nz < d/100 || nz > d/10 {
		t.Fatalf("selected %d of %d, want around %d", nz, d, d/20)
	}
}

func TestMomentumCorrectionAmplifiesPersistentGradients(t *testing.T) {
	// A constant gradient direction accumulates u ≈ g/(1−m), so transmitted
	// values exceed the raw gradient once momentum warms up.
	c, err := grace.New("dgc", grace.Options{Ratio: 0.5, Momentum: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	g := []float32{1, 0.9}
	info := grace.NewTensorInfo("t", []int{2})
	var last float32
	for i := 0; i < 30; i++ {
		p, err := c.Compress(g, info)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := c.Decompress(p, info)
		if out[0] != 0 {
			last = out[0]
		}
	}
	if last <= 1 {
		t.Fatalf("momentum correction should amplify persistent gradient: %v", last)
	}
}

func TestMaskingClearsTransmittedState(t *testing.T) {
	// After a huge element is transmitted, its accumulators reset: the next
	// round must not retransmit stale mass.
	c, _ := grace.New("dgc", grace.Options{Ratio: 0.02})
	const d = 100
	g := make([]float32, d)
	g[0] = 100
	info := grace.NewTensorInfo("t", []int{d})
	p, _ := c.Compress(g, info)
	out, _ := c.Decompress(p, info)
	if out[0] == 0 {
		t.Fatal("dominant element not transmitted")
	}
	first := out[0]
	// Now feed zeros: the element's state was cleared, so a second round
	// must transmit far less at index 0 (only residual drift, not 100+).
	zero := make([]float32, d)
	p, _ = c.Compress(zero, info)
	out, _ = c.Decompress(p, info)
	if out[0] >= first/2 {
		t.Fatalf("masking failed: retransmitted %v after %v", out[0], first)
	}
}

func TestPerTensorState(t *testing.T) {
	c, _ := grace.New("dgc", grace.Options{Ratio: 0.5})
	a := grace.NewTensorInfo("a", []int{4})
	b := grace.NewTensorInfo("b", []int{4})
	for i := 0; i < 5; i++ {
		if _, err := c.Compress([]float32{1, 1, 1, 1}, a); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := c.Compress([]float32{0.1, 0, 0, 0}, b)
	out, _ := c.Decompress(p, b)
	// Tensor b has no accumulated mass beyond its own first gradient.
	if out[0] > 0.10001 {
		t.Fatalf("tensor b inherited tensor a's accumulator: %v", out[0])
	}
}

func TestOvershootFallbackSelectsExactTopK(t *testing.T) {
	// Nearly every element ties at magnitude 1, so the sampled threshold (1)
	// admits them all, far more than 2k: the fallback must pick the k
	// largest candidates exactly, ties going to the lowest indices.
	c, _ := grace.New("dgc", grace.Options{Ratio: 0.01})
	const d = 1000 // k = 10
	g := make([]float32, d)
	for i := range g {
		g[i] = 1
		if i%2 == 1 {
			g[i] = -1
		}
	}
	g[500], g[900], g[901] = 3, -4, 2
	info := grace.NewTensorInfo("t", []int{d})
	p, err := c.Compress(g, info)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decompress(p, info)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for i, v := range out {
		if v != 0 {
			got = append(got, i)
			if v != g[i] {
				t.Fatalf("index %d sent %v, want %v", i, v, g[i])
			}
		}
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 500, 900, 901}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
}

func TestDecompressIntoMatchesDecompress(t *testing.T) {
	c, _ := grace.New("dgc", grace.Options{Ratio: 0.05})
	r := fxrand.New(4)
	const d = 3000
	info := grace.NewTensorInfo("t", []int{d})
	g := make([]float32, d)
	dst := make([]float32, d)
	for step := 0; step < 5; step++ {
		for i := range g {
			g[i] = r.NormFloat32()
		}
		p, err := c.Compress(g, info)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Decompress(p, info)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			dst[i] = float32(math.NaN()) // stale contents must be overwritten
		}
		if err := c.(grace.DecompressorInto).DecompressInto(p, info, dst); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("step %d index %d: DecompressInto %v, Decompress %v", step, i, dst[i], want[i])
			}
		}
	}
}
