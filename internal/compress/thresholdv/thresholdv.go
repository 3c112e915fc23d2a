// Package thresholdv implements Threshold-v sparsification [36]: transmit
// every gradient element whose absolute value exceeds a fixed threshold. The
// paper notes the appropriate threshold is model-specific and hard to pick;
// the adaptive output size is what distinguishes it from Top-k.
package thresholdv

import (
	"fmt"

	"repro/internal/compress/cbase"
	"repro/internal/grace"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "thresholdv",
		Class:     "sparsification",
		Output:    "adaptive",
		Nature:    "deterministic",
		DefaultEF: true,
		Reference: "Dutta et al., AAAI 2020 [36]",
		New: func(o grace.Options) (grace.Compressor, error) {
			th := o.Threshold
			if th == 0 {
				th = 0.01
			}
			if th < 0 {
				return nil, fmt.Errorf("thresholdv: negative threshold %v", th)
			}
			return &Compressor{threshold: float32(th)}, nil
		},
	})
}

// Compressor transmits elements with |g[i]| > threshold.
type Compressor struct {
	threshold float32
}

var _ grace.Compressor = (*Compressor)(nil)

// Name returns "thresholdv".
func (*Compressor) Name() string { return "thresholdv" }

// Strategy returns Allgather.
func (*Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress selects all elements exceeding the threshold. At least one
// element (the largest) is always sent so the payload is never empty.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	var idx []int
	var vals []float32
	best := 0
	for i, v := range g {
		a := v
		if a < 0 {
			a = -a
		}
		if a > c.threshold {
			idx = append(idx, i)
			vals = append(vals, v)
		}
		if abs32(g[i]) > abs32(g[best]) {
			best = i
		}
	}
	if len(idx) == 0 && len(g) > 0 {
		idx = []int{best}
		vals = []float32{g[best]}
	}
	return &grace.Payload{Bytes: cbase.EncodeSparse(idx, vals)}, nil
}

// Decompress restores the dense gradient.
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	return cbase.DecodeSparse(p.Bytes, info.Size())
}

// DecompressInto restores the dense gradient into dst without allocating
// (grace.DecompressorInto).
func (c *Compressor) DecompressInto(p *grace.Payload, info grace.TensorInfo, dst []float32) error {
	return cbase.DecodeSparseInto(p.Bytes, dst)
}

var _ grace.DecompressorInto = (*Compressor)(nil)

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}
