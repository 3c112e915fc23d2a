package randomk

import (
	"testing"

	"repro/internal/fxrand"
	"repro/internal/grace"
)

// FuzzDecompress feeds the sparse-payload decoder arbitrary bytes: hostile
// input must yield an error or a correctly-sized vector — never a panic or an
// allocation driven by a corrupt length prefix.
func FuzzDecompress(f *testing.F) {
	info := grace.NewTensorInfo("w", []int{6, 11})
	seedComp := New(0.25, 7)
	r := fxrand.New(5)
	g := make([]float32, info.Size())
	for i := range g {
		g[i] = r.NormFloat32()
	}
	if pay, err := seedComp.Compress(g, info); err == nil {
		f.Add(pay.Bytes)
	}
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7F})
	// Index 2 twice (second delta zero): decoders must reject it.
	f.Add([]byte{3, 2, 3, 0, 0, 0, 0x80, 0x3f, 0, 0, 0, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		c := New(0.25, 7)
		dec, err := c.Decompress(&grace.Payload{Bytes: data}, info)
		if err != nil {
			return
		}
		if len(dec) != info.Size() {
			t.Fatalf("decoded %d elements, want %d", len(dec), info.Size())
		}
	})
}
