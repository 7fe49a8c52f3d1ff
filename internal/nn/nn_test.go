package nn

import (
	"math"
	"math/rand"
	"testing"

	"cryptonn/internal/tensor"
)

func TestDenseForwardComputesWXPlusB(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewDense(2, 2, rng)
	l.W = fromRows([][]float64{{1, 2}, {3, 4}})
	l.B = fromRows([][]float64{{10}, {20}})
	x := fromRows([][]float64{{1, 0}, {0, 1}})
	z, err := l.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want := fromRows([][]float64{{11, 12}, {23, 24}})
	if !almostEqual(z, want, 1e-12) {
		t.Errorf("Forward = %v", z.Rows2D())
	}
}

func TestDenseShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewDense(3, 2, rng)
	if _, err := l.Forward(tensor.NewDense(4, 1)); err == nil {
		t.Error("wrong input size should fail")
	}
	if _, err := l.Backward(tensor.NewDense(2, 1)); err == nil {
		t.Error("backward before forward should fail")
	}
	if _, err := l.Forward(tensor.NewDense(3, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Backward(tensor.NewDense(3, 2)); err == nil {
		t.Error("wrong gradient shape should fail")
	}
}

func TestActivations(t *testing.T) {
	x := fromRows([][]float64{{-1, 0, 1}})
	tests := []struct {
		name string
		act  *Activation
		want []float64
	}{
		{"sigmoid", NewSigmoid(), []float64{1 / (1 + math.E), 0.5, 1 / (1 + math.Exp(-1))}},
		{"tanh", NewTanh(), []float64{math.Tanh(-1), 0, math.Tanh(1)}},
		{"relu", NewReLU(), []float64{0, 0, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, err := tt.act.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			for j, w := range tt.want {
				if math.Abs(out.At(0, j)-w) > 1e-12 {
					t.Errorf("%s(%v) = %v, want %v", tt.name, x.At(0, j), out.At(0, j), w)
				}
			}
			if n, err := tt.act.OutputSize(7); err != nil || n != 7 {
				t.Error("activation must preserve size")
			}
			if tt.act.Params() != nil {
				t.Error("activation must have no params")
			}
		})
	}
}

func TestActivationBackwardBeforeForwardFails(t *testing.T) {
	if _, err := NewTanh().Backward(tensor.NewDense(1, 1)); err == nil {
		t.Error("backward before forward should fail")
	}
}

func TestSoftmaxColumnsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	logits := tensor.NewDense(10, 5)
	logits.RandInit(rng, 3)
	p := Softmax(logits)
	for j := 0; j < p.Cols; j++ {
		var sum float64
		for i := 0; i < p.Rows; i++ {
			v := p.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("probability %v out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("column %d sums to %v", j, sum)
		}
	}
}

func TestSoftmaxStableForLargeLogits(t *testing.T) {
	logits := fromRows([][]float64{{1000}, {1001}})
	p := Softmax(logits)
	if math.IsNaN(p.At(0, 0)) || math.IsNaN(p.At(1, 0)) {
		t.Fatal("softmax overflowed")
	}
	if p.At(1, 0) <= p.At(0, 0) {
		t.Error("larger logit must win")
	}
}

func TestSoftmaxCrossEntropyGradientIsPMinusY(t *testing.T) {
	logits := fromRows([][]float64{{2, 0}, {1, 0}, {0, 0}})
	y := fromRows([][]float64{{1, 0}, {0, 1}, {0, 0}})
	loss, grad, err := SoftmaxCrossEntropy{}.Forward(logits, y)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Errorf("loss = %v, want positive", loss)
	}
	p := Softmax(logits)
	want, _ := tensor.Sub(p, y)
	want = want.Scale(0.5) // 1/batch
	if !almostEqual(grad, want, 1e-12) {
		t.Error("gradient != (P-Y)/m")
	}
}

func TestLossShapeErrors(t *testing.T) {
	a := tensor.NewDense(2, 2)
	b := tensor.NewDense(3, 2)
	if _, _, err := (SoftmaxCrossEntropy{}).Forward(a, b); err == nil {
		t.Error("mismatched CE should fail")
	}
	if _, _, err := (MSE{}).Forward(a, b); err == nil {
		t.Error("mismatched MSE should fail")
	}
}

func TestMSELossAndGradient(t *testing.T) {
	pred := fromRows([][]float64{{1, 2}})
	y := fromRows([][]float64{{0, 0}})
	loss, grad, err := MSE{}.Forward(pred, y)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1.0 + 4.0) / 4.0; math.Abs(loss-want) > 1e-12 {
		t.Errorf("loss = %v, want %v", loss, want)
	}
	if math.Abs(grad.At(0, 0)-0.5) > 1e-12 || math.Abs(grad.At(0, 1)-1.0) > 1e-12 {
		t.Errorf("grad = %v", grad.Rows2D())
	}
}

// numericalGrad estimates d(loss)/d(param[i]) by central differences.
func numericalGrad(t *testing.T, m *Model, x, y *tensor.Dense, p *tensor.Dense, i int) float64 {
	t.Helper()
	const eps = 1e-5
	orig := p.Data[i]
	lossAt := func(v float64) float64 {
		p.Data[i] = v
		out, err := m.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		loss, _, err := m.Loss.Forward(out, y)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	plus := lossAt(orig + eps)
	minus := lossAt(orig - eps)
	p.Data[i] = orig
	return (plus - minus) / (2 * eps)
}

func checkModelGradients(t *testing.T, m *Model, inSize, batch int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewDense(inSize, batch)
	x.RandInit(rng, 1)
	out, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	y := tensor.NewDense(out.Rows, batch)
	for j := 0; j < batch; j++ {
		y.Set(rng.Intn(out.Rows), j, 1)
	}

	m.ZeroGrad()
	out, err = m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	_, grad, err := m.Loss.Forward(out, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Backward(grad); err != nil {
		t.Fatal(err)
	}

	for _, p := range m.Params() {
		// Spot-check a handful of coordinates per parameter tensor.
		n := len(p.Value.Data)
		for _, i := range []int{0, n / 3, n / 2, n - 1} {
			got := p.Grad.Data[i]
			want := numericalGrad(t, m, x, y, p.Value, i)
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("%s[%d]: analytic %v, numeric %v", p.Name, i, got, want)
			}
		}
	}
}

func TestGradientCheckMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := NewMLP(6, 3, []int{5}, SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkModelGradients(t, m, 6, 4, 99)
}

func TestGradientCheckBinaryClassifierMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, err := NewBinaryClassifier(4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Binary targets in {0,1} on a single output row.
	x := tensor.NewDense(4, 5)
	x.RandInit(rng, 1)
	y := tensor.NewDense(1, 5)
	for j := 0; j < 5; j++ {
		if rng.Intn(2) == 1 {
			y.Set(0, j, 1)
		}
	}
	m.ZeroGrad()
	out, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	_, grad, err := m.Loss.Forward(out, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Backward(grad); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		i := len(p.Value.Data) / 2
		got := p.Grad.Data[i]
		want := numericalGrad(t, m, x, y, p.Value, i)
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("%s[%d]: analytic %v, numeric %v", p.Name, i, got, want)
		}
	}
}

func TestGradientCheckConvNet(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	conv, err := NewConv(1, 6, 6, 2, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewAvgPool(2, 6, 6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(36, SoftmaxCrossEntropy{},
		conv, NewTanh(), pool, NewDense(2*3*3, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	checkModelGradients(t, m, 36, 2, 100)
}

func TestModelWiringValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := NewModel(4, SoftmaxCrossEntropy{}, NewDense(5, 2, rng)); err == nil {
		t.Error("mismatched wiring should fail")
	}
	if _, err := NewModel(4, nil, NewDense(4, 2, rng)); err == nil {
		t.Error("nil loss should fail")
	}
	if _, err := NewModel(4, SoftmaxCrossEntropy{}); err == nil {
		t.Error("empty stack should fail")
	}
}

func TestSGDStepMovesAgainstGradient(t *testing.T) {
	opt, err := NewSGD(0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := fromRows([][]float64{{1}})
	g := fromRows([][]float64{{2}})
	if err := opt.Step([]Param{{Name: "w", Value: v, Grad: g}}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.At(0, 0)-0.8) > 1e-12 {
		t.Errorf("after step: %v, want 0.8", v.At(0, 0))
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	opt, err := NewSGD(0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	v := fromRows([][]float64{{0}})
	g := fromRows([][]float64{{1}})
	p := []Param{{Name: "w", Value: v, Grad: g}}
	if err := opt.Step(p); err != nil {
		t.Fatal(err)
	}
	first := v.At(0, 0) // -0.1
	if err := opt.Step(p); err != nil {
		t.Fatal(err)
	}
	second := v.At(0, 0) - first // -0.19
	if math.Abs(first+0.1) > 1e-12 || math.Abs(second+0.19) > 1e-12 {
		t.Errorf("momentum steps: %v then %v", first, second)
	}
}

func TestSGDValidation(t *testing.T) {
	if _, err := NewSGD(0, 0); err == nil {
		t.Error("zero lr should fail")
	}
	if _, err := NewSGD(0.1, 1); err == nil {
		t.Error("momentum 1 should fail")
	}
	opt, _ := NewSGD(0.1, 0)
	if err := opt.Step([]Param{{}}); err == nil {
		t.Error("nil param tensors should fail")
	}
}

func TestTrainingReducesLossXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := NewMLP(2, 2, []int{8}, SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := fromRows([][]float64{{0, 0, 1, 1}, {0, 1, 0, 1}})
	y := fromRows([][]float64{{1, 0, 0, 1}, {0, 1, 1, 0}}) // class = XOR
	opt, _ := NewSGD(0.5, 0.9)
	var first, last float64
	for i := 0; i < 600; i++ {
		loss, err := m.TrainBatch(x, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first/4 {
		t.Errorf("loss did not drop enough: %v -> %v", first, last)
	}
	acc, err := m.Accuracy(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 1 {
		t.Errorf("XOR accuracy = %v, want 1.0", acc)
	}
}

func TestForwardFromAndBackwardTo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := NewMLP(3, 2, []int{4}, SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewDense(3, 2)
	x.RandInit(rng, 1)
	full, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	// Layer 0's output fed into ForwardFrom(1) must equal the full pass.
	z0, err := m.Layers[0].Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := m.ForwardFrom(1, z0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(full, partial, 1e-12) {
		t.Error("ForwardFrom(1) diverges from full forward")
	}
	if _, err := m.ForwardFrom(99, x); err == nil {
		t.Error("out-of-range ForwardFrom should fail")
	}
	if _, err := m.BackwardTo(-1, full); err == nil {
		t.Error("out-of-range BackwardTo should fail")
	}
}

func TestLeNetSmallTrainsOneStep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := NewLeNetSmall(rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewDense(MNISTInputSize, 2)
	x.RandInit(rng, 0.5)
	y := tensor.NewDense(MNISTClasses, 2)
	y.Set(3, 0, 1)
	y.Set(7, 1, 1)
	opt, _ := NewSGD(0.01, 0)
	loss, err := m.TrainBatch(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 || math.IsNaN(loss) {
		t.Errorf("loss = %v", loss)
	}
}

func TestConvLayerGeometryValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if _, err := NewConv(1, 5, 5, 2, 3, 3, 0, rng); err == nil {
		t.Error("non-tiling conv should fail")
	}
	if _, err := NewAvgPool(1, 5, 5, 2, 2); err == nil {
		t.Error("non-tiling pool should fail")
	}
	conv, err := NewConv(1, 6, 6, 2, 3, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conv.Forward(tensor.NewDense(99, 1)); err == nil {
		t.Error("wrong conv input should fail")
	}
	if _, err := conv.Backward(tensor.NewDense(1, 1)); err == nil {
		t.Error("conv backward before forward should fail")
	}
	if _, err := conv.OutputSize(99); err == nil {
		t.Error("wrong OutputSize input should fail")
	}
	pool, err := NewAvgPool(1, 6, 6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Forward(tensor.NewDense(99, 1)); err == nil {
		t.Error("wrong pool input should fail")
	}
	if _, err := pool.OutputSize(99); err == nil {
		t.Error("wrong pool OutputSize should fail")
	}
}

func TestPredictAndAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, err := NewMLP(2, 2, nil, SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Make the model deterministic: identity-ish weights.
	dense := m.Layers[0].(*DenseLayer)
	dense.W = fromRows([][]float64{{10, 0}, {0, 10}})
	dense.B.Zero()
	x := fromRows([][]float64{{1, 0}, {0, 1}})
	y := fromRows([][]float64{{1, 0}, {0, 1}})
	preds, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != 0 || preds[1] != 1 {
		t.Errorf("preds = %v", preds)
	}
	acc, err := m.Accuracy(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Errorf("accuracy = %v", acc)
	}
}

// fromRows builds a matrix from rectangular row slices.
func fromRows(rows [][]float64) *tensor.Dense {
	d := tensor.NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(d.Data[i*d.Cols:(i+1)*d.Cols], r)
	}
	return d
}

// almostEqual reports element-wise equality within tol.
func almostEqual(a, b *tensor.Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
