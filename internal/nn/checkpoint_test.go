package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cryptonn/internal/tensor"
)

func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return got
}

func sameOutputs(t *testing.T, a, b *Model, inSize int) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	x := tensor.NewDense(inSize, 3)
	x.RandInit(rng, 1)
	ya, err := a.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := b.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if ya.Rows != yb.Rows || ya.Cols != yb.Cols {
		t.Fatalf("shapes %dx%d vs %dx%d", ya.Rows, ya.Cols, yb.Rows, yb.Cols)
	}
	for i := range ya.Data {
		if math.Abs(ya.Data[i]-yb.Data[i]) > 1e-12 {
			t.Fatalf("outputs differ at %d: %v vs %v", i, ya.Data[i], yb.Data[i])
		}
	}
}

func TestCheckpointRoundTripMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewMLP(12, 4, []int{8, 5}, SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, m)
	sameOutputs(t, m, got, 12)
	if got.Loss.Name() != m.Loss.Name() {
		t.Errorf("loss %q, want %q", got.Loss.Name(), m.Loss.Name())
	}
	if len(got.Params()) != len(m.Params()) {
		t.Errorf("%d parameter tensors, want %d", len(got.Params()), len(m.Params()))
	}
}

func TestCheckpointRoundTripConvNet(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := NewConvNetSmall(8, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, m)
	sameOutputs(t, m, got, 64)
}

func TestCheckpointRoundTripMSEBinaryClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := NewBinaryClassifier(6, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, m)
	sameOutputs(t, m, got, 6)
	if got.Loss.Name() != (MSE{}).Name() {
		t.Errorf("loss %q, want mse", got.Loss.Name())
	}
}

func TestCheckpointLoadedModelTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, err := NewMLP(5, 2, []int{4}, SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, m)
	x := tensor.NewDense(5, 4)
	x.RandInit(rng, 1)
	y := tensor.NewDense(2, 4)
	for j := 0; j < 4; j++ {
		y.Set(j%2, j, 1)
	}
	opt, err := NewSGD(0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := got.TrainBatch(x, y, opt)
	if err != nil {
		t.Fatalf("loaded model cannot train: %v", err)
	}
	var last float64
	for i := 0; i < 20; i++ {
		if last, err = got.TrainBatch(x, y, opt); err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Errorf("loaded model loss did not decrease: %v → %v", first, last)
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Error("garbage accepted")
	}
	if err := Save(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil model saved")
	}
}

func TestCheckpointVersionGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := NewMLP(3, 2, []int{2}, SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	// Corrupt the version by re-encoding with a bumped value.
	var cp checkpoint
	if err := gob.NewDecoder(&buf).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	cp.Version = 99
	var buf2 bytes.Buffer
	if err := gob.NewEncoder(&buf2).Encode(&cp); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf2); err == nil {
		t.Error("future version accepted")
	}
}

// A crafted checkpoint layer is rejected with ErrCheckpointShape before
// anything sized by it is allocated: a non-positive or huge dimension, or
// parameter lengths its geometry does not give.
func TestCheckpointRejectsBadShapes(t *testing.T) {
	dense := func(in, out, nw, nb int) layerSpec {
		return layerSpec{Kind: "dense", In: in, Out: out, W: make([]float64, nw), B: make([]float64, nb)}
	}
	conv := func(inC, filters, nw int) layerSpec {
		return layerSpec{Kind: "conv", InC: inC, InH: 4, InW: 4, Filters: filters, K: 3, Stride: 1, Pad: 1,
			W: make([]float64, nw), B: make([]float64, max(filters, 0))}
	}
	cases := map[string]layerSpec{
		"dense Out=0":       dense(3, 0, 0, 0),
		"dense Out=-2":      dense(-3, -2, 6, 0),
		"dense short W":     dense(3, 2, 5, 2),
		"dense short B":     dense(3, 2, 6, 1),
		"conv Filters=0":    conv(1, 0, 0),
		"conv InC=-1":       conv(-1, 2, 18),
		"conv W for InC=1":  conv(2, 2, 18),
		"conv short biases": {Kind: "conv", InC: 1, InH: 4, InW: 4, Filters: 2, K: 3, Stride: 1, Pad: 1, W: make([]float64, 18)},
	}
	for _, in := range []int64{0, -1, 1 << 40} {
		cases[fmt.Sprintf("dense In=%d", in)] = dense(int(in), 2, 2, 2)
	}
	for name, spec := range cases {
		cp := checkpoint{Version: checkpointVersion, InputSize: 3, Loss: MSE{}.Name(), Layers: []layerSpec{spec}}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&cp); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); !errors.Is(err, ErrCheckpointShape) {
			t.Errorf("%s: err = %v, want ErrCheckpointShape", name, err)
		}
	}
}
