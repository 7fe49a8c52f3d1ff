package tensor

import "fmt"

// Volume is a 3-D feature map laid out as [channel][row][col], the unit of
// data flowing through convolutional layers. Data is row-major within each
// channel plane.
type Volume struct {
	C, H, W int
	Data    []float64
}

// NewVolume allocates a zeroed C×H×W volume.
func NewVolume(c, h, w int) *Volume {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid volume shape %dx%dx%d", c, h, w))
	}
	return &Volume{C: c, H: h, W: w, Data: make([]float64, c*h*w)}
}

// At returns element (c, i, j).
func (v *Volume) At(c, i, j int) float64 { return v.Data[(c*v.H+i)*v.W+j] }

// Set assigns element (c, i, j).
func (v *Volume) Set(c, i, j int, x float64) { v.Data[(c*v.H+i)*v.W+j] = x }

// Clone returns a deep copy.
func (v *Volume) Clone() *Volume {
	c := NewVolume(v.C, v.H, v.W)
	copy(c.Data, v.Data)
	return c
}

// VolumeFromFlat reshapes a flat channel-major vector into a volume.
func VolumeFromFlat(data []float64, c, h, w int) (*Volume, error) {
	if len(data) != c*h*w {
		return nil, fmt.Errorf("%w: %d values for %dx%dx%d volume", ErrShape, len(data), c, h, w)
	}
	v := NewVolume(c, h, w)
	copy(v.Data, data)
	return v, nil
}

// Pad returns a copy with p zero rows/cols added on every spatial side —
// the "mixed matrix" of Fig. 2, where padding stays plaintext zero while
// the interior may be encrypted.
func (v *Volume) Pad(p int) *Volume {
	if p == 0 {
		return v.Clone()
	}
	out := NewVolume(v.C, v.H+2*p, v.W+2*p)
	for c := 0; c < v.C; c++ {
		for i := 0; i < v.H; i++ {
			srcOff := (c*v.H + i) * v.W
			dstOff := (c*out.H+i+p)*out.W + p
			copy(out.Data[dstOff:dstOff+v.W], v.Data[srcOff:srcOff+v.W])
		}
	}
	return out
}

// ConvOutSize returns the output spatial size for input n, kernel k,
// stride s, padding p; it errors when the geometry does not tile.
func ConvOutSize(n, k, s, p int) (int, error) {
	if k <= 0 || s <= 0 || p < 0 {
		return 0, fmt.Errorf("%w: kernel %d stride %d pad %d", ErrShape, k, s, p)
	}
	if (n+2*p-k)%s != 0 {
		return 0, fmt.Errorf("%w: (%d+2*%d-%d) not divisible by stride %d", ErrShape, n, p, k, s)
	}
	out := (n+2*p-k)/s + 1
	if out <= 0 {
		return 0, fmt.Errorf("%w: non-positive output size %d", ErrShape, out)
	}
	return out, nil
}

// Im2Col lowers convolution to matrix multiplication: every sliding window
// of the padded volume becomes one column. The result has C*kh*kw rows and
// outH*outW columns, so filters-as-rows times Im2Col equals the
// convolution output. This is also exactly the window extraction that the
// secure convolution scheme (Algorithm 3) encrypts: each column is one
// window vector t.
func Im2Col(v *Volume, kh, kw, stride, pad int) (*Dense, error) {
	outH, err := ConvOutSize(v.H, kh, stride, pad)
	if err != nil {
		return nil, err
	}
	outW, err := ConvOutSize(v.W, kw, stride, pad)
	if err != nil {
		return nil, err
	}
	padded := v.Pad(pad)
	col := NewDense(v.C*kh*kw, outH*outW)
	for oi := 0; oi < outH; oi++ {
		for oj := 0; oj < outW; oj++ {
			outIdx := oi*outW + oj
			r := 0
			for c := 0; c < v.C; c++ {
				for di := 0; di < kh; di++ {
					rowOff := (c*padded.H + oi*stride + di) * padded.W
					base := rowOff + oj*stride
					for dj := 0; dj < kw; dj++ {
						col.Data[r*col.Cols+outIdx] = padded.Data[base+dj]
						r++
					}
				}
			}
		}
	}
	return col, nil
}

// Col2Im is the adjoint of Im2Col: it scatters patch-gradient columns back
// into an input-shaped volume, accumulating where windows overlap. It is
// the input-gradient path of the convolutional layer.
func Col2Im(col *Dense, c, h, w, kh, kw, stride, pad int) (*Volume, error) {
	outH, err := ConvOutSize(h, kh, stride, pad)
	if err != nil {
		return nil, err
	}
	outW, err := ConvOutSize(w, kw, stride, pad)
	if err != nil {
		return nil, err
	}
	if col.Rows != c*kh*kw || col.Cols != outH*outW {
		return nil, fmt.Errorf("%w: col is %dx%d, want %dx%d", ErrShape, col.Rows, col.Cols, c*kh*kw, outH*outW)
	}
	paddedH, paddedW := h+2*pad, w+2*pad
	padded := NewVolume(c, paddedH, paddedW)
	for oi := 0; oi < outH; oi++ {
		for oj := 0; oj < outW; oj++ {
			outIdx := oi*outW + oj
			r := 0
			for ch := 0; ch < c; ch++ {
				for di := 0; di < kh; di++ {
					rowOff := (ch*paddedH + oi*stride + di) * paddedW
					base := rowOff + oj*stride
					for dj := 0; dj < kw; dj++ {
						padded.Data[base+dj] += col.Data[r*col.Cols+outIdx]
						r++
					}
				}
			}
		}
	}
	if pad == 0 {
		return padded, nil
	}
	out := NewVolume(c, h, w)
	for ch := 0; ch < c; ch++ {
		for i := 0; i < h; i++ {
			srcOff := (ch*paddedH+i+pad)*paddedW + pad
			dstOff := (ch*h + i) * w
			copy(out.Data[dstOff:dstOff+w], padded.Data[srcOff:srcOff+w])
		}
	}
	return out, nil
}

// AvgPool computes average pooling with square window k and stride s,
// returning the pooled volume.
func AvgPool(v *Volume, k, s int) (*Volume, error) {
	outH, err := ConvOutSize(v.H, k, s, 0)
	if err != nil {
		return nil, err
	}
	outW, err := ConvOutSize(v.W, k, s, 0)
	if err != nil {
		return nil, err
	}
	out := NewVolume(v.C, outH, outW)
	inv := 1.0 / float64(k*k)
	for c := 0; c < v.C; c++ {
		for oi := 0; oi < outH; oi++ {
			for oj := 0; oj < outW; oj++ {
				var acc float64
				for di := 0; di < k; di++ {
					for dj := 0; dj < k; dj++ {
						acc += v.At(c, oi*s+di, oj*s+dj)
					}
				}
				out.Set(c, oi, oj, acc*inv)
			}
		}
	}
	return out, nil
}

// AvgPoolBackward distributes output gradients uniformly back over each
// pooling window.
func AvgPoolBackward(grad *Volume, inH, inW, k, s int) (*Volume, error) {
	out := NewVolume(grad.C, inH, inW)
	inv := 1.0 / float64(k*k)
	for c := 0; c < grad.C; c++ {
		for oi := 0; oi < grad.H; oi++ {
			for oj := 0; oj < grad.W; oj++ {
				g := grad.At(c, oi, oj) * inv
				for di := 0; di < k; di++ {
					for dj := 0; dj < k; dj++ {
						i, j := oi*s+di, oj*s+dj
						if i < inH && j < inW {
							out.Set(c, i, j, out.At(c, i, j)+g)
						}
					}
				}
			}
		}
	}
	return out, nil
}
