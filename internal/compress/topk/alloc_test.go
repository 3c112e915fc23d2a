package topk

import (
	"fmt"
	"testing"

	"repro/internal/fxrand"
	"repro/internal/grace"
)

// wideSizes are the two largest tensor shapes of the mlpwide benchmark model.
var wideSizes = []int{196608, 294912}

func normal(d int, seed uint64) []float32 {
	r := fxrand.New(seed)
	g := make([]float32, d)
	for i := range g {
		g[i] = r.NormFloat32()
	}
	return g
}

// TestAllocCeilings pins the steady-state allocations of the Top-k codec at
// a production tensor size. Compress, called through grace.Compressor as the
// Engine calls it, allocates the *grace.Payload and its exactly sized bytes
// and nothing else (cbase.TestSparseAllocCeilings holds the select-and-encode
// step itself to the one payload allocation); DecompressInto allocates
// nothing.
func TestAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const d = 294912
	info := grace.NewTensorInfo("w", []int{d})
	g := normal(d, 3)
	var c grace.Compressor = &Compressor{ratio: 0.01}
	var p *grace.Payload
	if a := testing.AllocsPerRun(20, func() { p, _ = c.Compress(g, info) }); a > 2 {
		t.Fatalf("Compress at d=%d made %v allocations, want at most 2 (payload header and bytes)", d, a)
	}
	into := c.(grace.DecompressorInto)
	dst := make([]float32, d)
	if a := testing.AllocsPerRun(20, func() {
		if err := into.DecompressInto(p, info, dst); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("DecompressInto made %v allocations, want 0", a)
	}
}

var sinkPayload *grace.Payload

// BenchmarkTopKCompress times 1% Top-k selection plus encoding.
func BenchmarkTopKCompress(b *testing.B) {
	for _, d := range wideSizes {
		b.Run(fmt.Sprint(d), func(b *testing.B) {
			info := grace.NewTensorInfo("w", []int{d})
			g := normal(d, 3)
			c := &Compressor{ratio: 0.01}
			b.SetBytes(int64(4 * d))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkPayload, _ = c.Compress(g, info)
			}
		})
	}
}

// BenchmarkSparseDecode times decoding one 1% Top-k payload into a dense
// buffer, the per-rank step of the Allgather aggregation.
func BenchmarkSparseDecode(b *testing.B) {
	for _, d := range wideSizes {
		b.Run(fmt.Sprint(d), func(b *testing.B) {
			info := grace.NewTensorInfo("w", []int{d})
			c := &Compressor{ratio: 0.01}
			p, err := c.Compress(normal(d, 3), info)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]float32, d)
			b.SetBytes(int64(4 * d))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.DecompressInto(p, info, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
