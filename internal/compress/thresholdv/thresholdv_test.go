package thresholdv

import (
	"math"
	"testing"

	"repro/internal/fxrand"
	"repro/internal/grace"
)

func TestOnlyAboveThresholdTransmitted(t *testing.T) {
	c, err := grace.New("thresholdv", grace.Options{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	g := []float32{0.4, 0.6, -0.7, -0.3, 0.51}
	info := grace.NewTensorInfo("t", []int{5})
	p, _ := c.Compress(g, info)
	out, _ := c.Decompress(p, info)
	want := []float32{0, 0.6, -0.7, 0, 0.51}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("decode %v want %v", out, want)
		}
	}
}

func TestOutputSizeIsAdaptive(t *testing.T) {
	// Unlike Top-k, the payload grows with the number of large elements —
	// the "adaptive ‖g̃‖0" property of Table I.
	c, _ := grace.New("thresholdv", grace.Options{Threshold: 0.5})
	info := grace.NewTensorInfo("t", []int{1000})
	r := fxrand.New(1)
	calm := make([]float32, 1000)
	spiky := make([]float32, 1000)
	for i := range calm {
		calm[i] = r.NormFloat32() * 0.1  // almost nothing crosses 0.5
		spiky[i] = r.NormFloat32() * 2.0 // most cross 0.5
	}
	pc, _ := c.Compress(calm, info)
	ps, _ := c.Compress(spiky, info)
	if pc.WireBytes() >= ps.WireBytes()/10 {
		t.Fatalf("calm payload %d not ≪ spiky %d", pc.WireBytes(), ps.WireBytes())
	}
}

func TestNeverEmptyPayload(t *testing.T) {
	// Even when nothing crosses the threshold, the largest element is sent
	// so training never silently stalls.
	c, _ := grace.New("thresholdv", grace.Options{Threshold: 100})
	g := []float32{0.1, -0.4, 0.2}
	info := grace.NewTensorInfo("t", []int{3})
	p, _ := c.Compress(g, info)
	out, _ := c.Decompress(p, info)
	if out[1] != -0.4 {
		t.Fatalf("largest element not transmitted: %v", out)
	}
}

func TestRejectsNegativeThreshold(t *testing.T) {
	if _, err := grace.New("thresholdv", grace.Options{Threshold: -1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestDecompressIntoMatchesDecompress(t *testing.T) {
	c, _ := grace.New("thresholdv", grace.Options{Threshold: 1.5})
	r := fxrand.New(9)
	const d = 2000
	info := grace.NewTensorInfo("t", []int{d})
	g := make([]float32, d)
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
	dst := make([]float32, d)
	for i := range dst {
		dst[i] = float32(math.NaN()) // stale contents must be overwritten
	}
	if err := c.(grace.DecompressorInto).DecompressInto(p, info, dst); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
			t.Fatalf("index %d: DecompressInto %v, Decompress %v", i, dst[i], want[i])
		}
	}
}
