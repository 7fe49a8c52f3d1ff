package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVolumeAccessors(t *testing.T) {
	v := NewVolume(2, 3, 4)
	v.Set(1, 2, 3, 7.5)
	if v.At(1, 2, 3) != 7.5 {
		t.Error("Set/At broken")
	}
	c := v.Clone()
	c.Set(0, 0, 0, 1)
	if v.At(0, 0, 0) == 1 {
		t.Error("Clone must deep-copy")
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	v := NewVolume(2, 2, 2)
	for i := range v.Data {
		v.Data[i] = float64(i)
	}
	flat := append([]float64(nil), v.Data...)
	back, err := VolumeFromFlat(flat, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Data {
		if back.Data[i] != v.Data[i] {
			t.Fatal("flatten round trip broken")
		}
	}
	if _, err := VolumeFromFlat(flat, 3, 2, 2); err == nil {
		t.Error("wrong shape should fail")
	}
}

func TestPad(t *testing.T) {
	v := NewVolume(1, 2, 2)
	v.Set(0, 0, 0, 1)
	v.Set(0, 1, 1, 4)
	p := v.Pad(1)
	if p.H != 4 || p.W != 4 {
		t.Fatalf("padded shape %dx%d", p.H, p.W)
	}
	if p.At(0, 0, 0) != 0 || p.At(0, 3, 3) != 0 {
		t.Error("border must be zero")
	}
	if p.At(0, 1, 1) != 1 || p.At(0, 2, 2) != 4 {
		t.Error("interior shifted wrongly")
	}
	// Pad(0) is a copy.
	p0 := v.Pad(0)
	p0.Set(0, 0, 0, 99)
	if v.At(0, 0, 0) == 99 {
		t.Error("Pad(0) must copy")
	}
}

func TestConvOutSize(t *testing.T) {
	// The paper's Fig. 2 example: 5x5 input, pad 1, filter 3, stride 2 -> 3x3.
	n, err := ConvOutSize(5, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("ConvOutSize = %d, want 3", n)
	}
	if _, err := ConvOutSize(5, 3, 3, 0); err == nil {
		t.Error("non-tiling geometry should fail")
	}
	if _, err := ConvOutSize(5, 0, 1, 0); err == nil {
		t.Error("zero kernel should fail")
	}
	if _, err := ConvOutSize(5, 3, 0, 0); err == nil {
		t.Error("zero stride should fail")
	}
	if _, err := ConvOutSize(5, 3, 1, -1); err == nil {
		t.Error("negative pad should fail")
	}
	if _, err := ConvOutSize(2, 5, 1, 0); err == nil {
		t.Error("kernel larger than input should fail")
	}
}

// referenceConv computes convolution naively for cross-checking Im2Col.
func referenceConv(v *Volume, filter *Volume, stride, pad int) *Dense {
	padded := v.Pad(pad)
	outH := (padded.H-filter.H)/stride + 1
	outW := (padded.W-filter.W)/stride + 1
	out := NewDense(outH, outW)
	for oi := 0; oi < outH; oi++ {
		for oj := 0; oj < outW; oj++ {
			var acc float64
			for c := 0; c < v.C; c++ {
				for di := 0; di < filter.H; di++ {
					for dj := 0; dj < filter.W; dj++ {
						acc += padded.At(c, oi*stride+di, oj*stride+dj) * filter.At(c, di, dj)
					}
				}
			}
			out.Set(oi, oj, acc)
		}
	}
	return out
}

func TestIm2ColMatchesReferenceConv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tests := []struct {
		name           string
		c, h, w        int
		kh, kw, stride int
		pad            int
	}{
		{"paper fig2", 1, 5, 5, 3, 3, 2, 1},
		{"lenet c1", 1, 28, 28, 5, 5, 1, 2},
		{"multichannel", 3, 8, 8, 3, 3, 1, 0},
		{"stride 2 no pad", 2, 6, 6, 2, 2, 2, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := NewVolume(tt.c, tt.h, tt.w)
			randFill(rng, v.Data)
			filter := NewVolume(tt.c, tt.kh, tt.kw)
			randFill(rng, filter.Data)

			col, err := Im2Col(v, tt.kh, tt.kw, tt.stride, tt.pad)
			if err != nil {
				t.Fatal(err)
			}
			fRow, err := FromRows([][]float64{filter.Data})
			if err != nil {
				t.Fatal(err)
			}
			got, err := MatMul(fRow, col)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceConv(v, filter, tt.stride, tt.pad)
			outH, outW := want.Rows, want.Cols
			for oi := 0; oi < outH; oi++ {
				for oj := 0; oj < outW; oj++ {
					if math.Abs(got.At(0, oi*outW+oj)-want.At(oi, oj)) > 1e-9 {
						t.Fatalf("cell (%d,%d): got %v want %v", oi, oj, got.At(0, oi*outW+oj), want.At(oi, oj))
					}
				}
			}
		})
	}
}

func TestIm2ColGeometryErrors(t *testing.T) {
	v := NewVolume(1, 5, 5)
	if _, err := Im2Col(v, 3, 3, 3, 0); err == nil {
		t.Error("non-tiling stride should fail")
	}
	if _, err := Im2Col(v, 6, 6, 1, 0); err == nil {
		t.Error("oversized kernel should fail")
	}
}

// Property: Col2Im is the adjoint of Im2Col: ⟨Im2Col(x), y⟩ = ⟨x, Col2Im(y)⟩.
func TestQuickCol2ImAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const c, h, w, k, s, p = 2, 6, 6, 3, 1, 1
		x := NewVolume(c, h, w)
		randFill(rng, x.Data)
		colX, err := Im2Col(x, k, k, s, p)
		if err != nil {
			return false
		}
		y := NewDense(colX.Rows, colX.Cols)
		y.RandInit(rng, 1)
		backY, err := Col2Im(y, c, h, w, k, k, s, p)
		if err != nil {
			return false
		}
		var lhs, rhs float64
		for i := range colX.Data {
			lhs += colX.Data[i] * y.Data[i]
		}
		for i := range x.Data {
			rhs += x.Data[i] * backY.Data[i]
		}
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCol2ImShapeError(t *testing.T) {
	if _, err := Col2Im(NewDense(1, 1), 1, 5, 5, 3, 3, 1, 0); err == nil {
		t.Error("wrong col shape should fail")
	}
}

func TestAvgPool(t *testing.T) {
	v := NewVolume(1, 4, 4)
	for i := range v.Data {
		v.Data[i] = float64(i)
	}
	out, err := AvgPool(v, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 2 || out.W != 2 {
		t.Fatalf("pooled shape %dx%d", out.H, out.W)
	}
	// Window (0,0): elements 0,1,4,5 -> mean 2.5
	if out.At(0, 0, 0) != 2.5 {
		t.Errorf("pool(0,0) = %v, want 2.5", out.At(0, 0, 0))
	}
	// Window (1,1): elements 10,11,14,15 -> mean 12.5
	if out.At(0, 1, 1) != 12.5 {
		t.Errorf("pool(1,1) = %v, want 12.5", out.At(0, 1, 1))
	}
	if _, err := AvgPool(v, 3, 2); err == nil {
		t.Error("non-tiling pool should fail")
	}
}

func TestAvgPoolBackwardDistributesUniformly(t *testing.T) {
	grad := NewVolume(1, 2, 2)
	grad.Set(0, 0, 0, 4)
	grad.Set(0, 1, 1, 8)
	back, err := AvgPoolBackward(grad, 4, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if back.At(0, 0, 0) != 1 || back.At(0, 1, 1) != 1 {
		t.Error("window (0,0) should receive 4/4 each")
	}
	if back.At(0, 2, 2) != 2 || back.At(0, 3, 3) != 2 {
		t.Error("window (1,1) should receive 8/4 each")
	}
	if back.At(0, 0, 2) != 0 {
		t.Error("untouched cells must be zero")
	}
}

// Property: AvgPoolBackward is the adjoint of AvgPool.
func TestQuickAvgPoolAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := NewVolume(2, 4, 4)
		randFill(rng, x.Data)
		px, err := AvgPool(x, 2, 2)
		if err != nil {
			return false
		}
		y := NewVolume(px.C, px.H, px.W)
		randFill(rng, y.Data)
		by, err := AvgPoolBackward(y, 4, 4, 2, 2)
		if err != nil {
			return false
		}
		var lhs, rhs float64
		for i := range px.Data {
			lhs += px.Data[i] * y.Data[i]
		}
		for i := range x.Data {
			rhs += x.Data[i] * by.Data[i]
		}
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNewVolumePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewVolume(0,1,1) should panic")
		}
	}()
	NewVolume(0, 1, 1)
}

// randFill fills data with uniform values in [-1, 1].
func randFill(rng *rand.Rand, data []float64) {
	for i := range data {
		data[i] = rng.Float64()*2 - 1
	}
}
