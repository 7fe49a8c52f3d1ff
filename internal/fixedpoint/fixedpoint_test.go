package fixedpoint

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeBasics(t *testing.T) {
	c := Default()
	tests := []struct {
		in   float64
		want int64
	}{
		{0, 0},
		{1, 100},
		{-1, -100},
		{0.125, 13}, // round-half-away at 2 digits
		{3.14159, 314},
		{-2.718, -272},
		{0.004, 0},
		{0.005, 1},
	}
	for _, tt := range tests {
		got, err := c.Encode(tt.in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", tt.in, err)
		}
		if got != tt.want {
			t.Errorf("Encode(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestDecodeInvertsEncodeWithinPrecision(t *testing.T) {
	c := Default()
	for _, v := range []float64{0, 1.25, -19.87, 1000.5, -0.01} {
		enc, err := c.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Decode(enc); math.Abs(got-v) > 0.005 {
			t.Errorf("Decode(Encode(%v)) = %v", v, got)
		}
	}
}

func TestEncodeRejectsSpecials(t *testing.T) {
	c := Default()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e30} {
		if _, err := c.Encode(v); !errors.Is(err, ErrOverflow) {
			t.Errorf("Encode(%v) err = %v, want ErrOverflow", v, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Error("negative digits should fail")
	}
	if _, err := New(10); err == nil {
		t.Error("ten digits should fail")
	}
	c, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Factor() != 1 {
		t.Errorf("Factor = %d, want 1", c.Factor())
	}
	c3, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Factor() != 1000 {
		t.Error("3-digit codec misconfigured")
	}
}

func TestDecodeProduct(t *testing.T) {
	c := Default()
	a, _ := c.Encode(1.5)  // 150
	b, _ := c.Encode(-2.0) // -200
	prod := a * b          // -30000 at scale 10^4
	if got := c.DecodeProduct(prod); got != -3.0 {
		t.Errorf("DecodeProduct = %v, want -3", got)
	}
}

func TestVecAndMatRoundTrips(t *testing.T) {
	c := Default()
	v := []float64{1.5, -2.25, 0}
	enc, err := c.EncodeVec(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if dec := c.Decode(enc[i]); math.Abs(dec-v[i]) > 0.005 {
			t.Errorf("vec[%d]: %v -> %v", i, v[i], dec)
		}
	}
	m := [][]float64{{1.1, 2.2}, {-3.3, 4.4}}
	encM, err := c.EncodeMat(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		for j := range m[i] {
			if dec := c.Decode(encM[i][j]); math.Abs(dec-m[i][j]) > 0.005 {
				t.Errorf("mat[%d][%d]: %v -> %v", i, j, m[i][j], dec)
			}
		}
	}
	if _, err := c.EncodeVec([]float64{math.NaN()}); err == nil {
		t.Error("NaN in vector should fail")
	}
	if _, err := c.EncodeMat([][]float64{{math.Inf(1)}}); err == nil {
		t.Error("Inf in matrix should fail")
	}
}

// Property: decode(encode(v)) is within half an ulp of the scale for all
// representable values.
func TestQuickRoundTrip(t *testing.T) {
	c := Default()
	f := func(raw int32) bool {
		v := float64(raw) / 1000.0
		enc, err := c.Encode(v)
		if err != nil {
			return false
		}
		return math.Abs(c.Decode(enc)-v) <= 0.005+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: encoding is additively homomorphic up to rounding error.
func TestQuickAdditiveHomomorphism(t *testing.T) {
	c := Default()
	f := func(a, b int16) bool {
		x, y := float64(a)/100, float64(b)/100
		ex, err1 := c.Encode(x)
		ey, err2 := c.Encode(y)
		exy, err3 := c.Encode(x + y)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return ex+ey == exy // exact at 2 digits for 2-digit inputs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
