package mnist

import (
	"testing"

	"cryptonn/internal/tensor"
)

func TestPoolColumnsIdentityAtFactorOne(t *testing.T) {
	x := tensor.NewDense(16, 2)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	if got := PoolColumns(x, 4, 1); got != x {
		t.Error("factor 1 should return the input unchanged")
	}
}

func TestPoolColumnsAverages(t *testing.T) {
	// One 4×4 image per column; 2× pooling averages each 2×2 block.
	x := tensor.NewDense(16, 1)
	for i := 0; i < 16; i++ {
		x.Set(i, 0, float64(i))
	}
	got := PoolColumns(x, 4, 2)
	if got.Rows != 4 || got.Cols != 1 {
		t.Fatalf("pooled shape %dx%d, want 4x1", got.Rows, got.Cols)
	}
	// Block (0,0) holds pixels 0,1,4,5 → mean 2.5; block (0,1) holds
	// 2,3,6,7 → mean 4.5; block (1,0): 8,9,12,13 → 10.5; block (1,1):
	// 10,11,14,15 → 12.5.
	want := []float64{2.5, 4.5, 10.5, 12.5}
	for i, w := range want {
		if got.At(i, 0) != w {
			t.Errorf("pooled[%d] = %v, want %v", i, got.At(i, 0), w)
		}
	}
}

func TestPoolColumnsPreservesColumnCount(t *testing.T) {
	x := tensor.NewDense(64, 5)
	for i := range x.Data {
		x.Data[i] = float64(i % 7)
	}
	got := PoolColumns(x, 8, 4)
	if got.Rows != 4 || got.Cols != 5 {
		t.Fatalf("pooled shape %dx%d, want 4x5", got.Rows, got.Cols)
	}
	// Constant-column check: pooling a constant image stays constant.
	c := tensor.NewDense(64, 1)
	for i := range c.Data {
		c.Data[i] = 3.25
	}
	pc := PoolColumns(c, 8, 2)
	for i := range pc.Data {
		if pc.Data[i] != 3.25 {
			t.Fatalf("constant image pooled to %v at %d", pc.Data[i], i)
		}
	}
}
