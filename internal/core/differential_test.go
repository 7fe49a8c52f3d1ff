package core_test

// Differential test of the secure training step. One core.Trainer step over
// ciphertexts and one step of a plaintext fixed-point twin — the same
// Algorithm 2/3 skeleton with every secure result replaced by the exact
// integer it must decrypt to — start from identical parameters and must end
// on bit-identical first-layer weights and bias, and report the same loss.
// The twin repeats the trainer's float arithmetic around those integers
// expression by expression; how the trainer obtains the integers is what
// the test leaves free.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname

	"cryptonn/internal/core"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

// groupUseLanes is group's lane-kernel selection, read from CPUID at start
// (group/lanes_amd64.go). It is not an option; the differential table
// deselects it through deselectLanes to hold the scalar body to the twin
// on CPUs that have the lanes.
//
//go:linkname groupUseLanes cryptonn/internal/group.useLanes
var groupUseLanes bool

// deselectLanes turns group's lane kernel off until t ends.
func deselectLanes(t testing.TB) {
	saved := groupUseLanes
	groupUseLanes = false
	t.Cleanup(func() { groupUseLanes = saved })
}

// twinConfig is the trainer configuration both sides run under.
var twinConfig = core.Config{
	Codec:       fixedpoint.Default(),
	MaxWeight:   4,
	GradScale:   100,
	ComputeLoss: true,
}

// matMulInt returns a·b for a (r×k) and b (k×c).
func matMulInt(a, b [][]int64) [][]int64 {
	out := make([][]int64, len(a))
	for i := range a {
		out[i] = make([]int64, len(b[0]))
		for j := range out[i] {
			for t, v := range a[i] {
				out[i][j] += v * b[t][j]
			}
		}
	}
	return out
}

// matMulT2Int returns a·bᵀ for a (r×k) and b (c×k).
func matMulT2Int(a, b [][]int64) [][]int64 {
	out := make([][]int64, len(a))
	for i := range a {
		out[i] = make([]int64, len(b))
		for j := range b {
			for t, v := range a[i] {
				out[i][j] += v * b[j][t]
			}
		}
	}
	return out
}

func mustEncode(t *testing.T, m *tensor.Dense) [][]int64 {
	t.Helper()
	enc, err := twinConfig.Codec.EncodeMat(m.Rows2D())
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func clampEncode(t *testing.T, m *tensor.Dense, limit float64) [][]int64 {
	t.Helper()
	return mustEncode(t, m.Apply(func(v float64) float64 {
		return math.Max(-limit, math.Min(limit, v))
	}))
}

func denseFromInt(m [][]int64, decode func(int64) float64) *tensor.Dense {
	out := tensor.NewDense(len(m), len(m[0]))
	for i, row := range m {
		for j, v := range row {
			out.Set(i, j, decode(v))
		}
	}
	return out
}

// twinHead is the softmax head over the plaintext label integers: the
// gradient (P − Y)/n at the model output and the cross-entropy loss
// −(1/n)Σ_j ⟨y_j, encode(log p_j)⟩.
func twinHead(t *testing.T, out *tensor.Dense, yInt [][]int64) (float64, *tensor.Dense) {
	t.Helper()
	codec := twinConfig.Codec
	n := out.Cols
	p := nn.Softmax(out)
	pInt := mustEncode(t, p)
	diff := tensor.NewDense(p.Rows, n)
	for i := range pInt {
		for j := range pInt[i] {
			diff.Set(i, j, -codec.Decode(yInt[i][j]-pInt[i][j]))
		}
	}
	logP := p.Apply(func(v float64) float64 {
		return math.Log(math.Max(v, math.Exp(-core.LogPClamp)))
	})
	var total float64
	for j := 0; j < n; j++ {
		vec, err := codec.EncodeVec(logP.Col(j))
		if err != nil {
			t.Fatal(err)
		}
		var ip int64
		for i, v := range vec {
			ip += yInt[i][j] * v
		}
		total += codec.DecodeProduct(ip)
	}
	return -total / float64(n), diff.Scale(1 / float64(n))
}

// twinDenseStep is Algorithm 2 on plaintext integers.
func twinDenseStep(t *testing.T, model *nn.Model, x, y *tensor.Dense, opt nn.Optimizer) float64 {
	t.Helper()
	codec, gradScale := twinConfig.Codec, twinConfig.GradScale
	layer0 := model.Layers[0].(*nn.DenseLayer)
	xInt, yInt := mustEncode(t, x), mustEncode(t, y)
	model.ZeroGrad()

	z := denseFromInt(matMulInt(clampEncode(t, layer0.W, twinConfig.MaxWeight), xInt), codec.DecodeProduct)
	if err := z.AddColVector(layer0.B.Data); err != nil {
		t.Fatal(err)
	}
	out, err := model.ForwardFrom(1, z)
	if err != nil {
		t.Fatal(err)
	}
	loss, gradOut := twinHead(t, out, yInt)
	dZ, err := model.BackwardTo(1, gradOut)
	if err != nil {
		t.Fatal(err)
	}
	dzInt := clampEncode(t, dZ.Scale(gradScale), twinConfig.MaxWeight*gradScale)
	dW := denseFromInt(matMulT2Int(dzInt, xInt), func(v int64) float64 {
		return codec.DecodeProduct(v) / gradScale
	})
	if err := layer0.GradW.AddInPlace(dW); err != nil {
		t.Fatal(err)
	}
	for i, v := range dZ.SumCols() {
		layer0.GradB.Data[i] += v
	}
	if err := model.ApplyStep(opt); err != nil {
		t.Fatal(err)
	}
	return loss
}

// twinConvStep is the CryptoCNN step (Algorithm 3 forward, label
// evaluation, filter gradient) on plaintext integers.
func twinConvStep(t *testing.T, model *nn.Model, x, y *tensor.Dense, opt nn.Optimizer) float64 {
	t.Helper()
	codec, gradScale := twinConfig.Codec, twinConfig.GradScale
	layer0 := model.Layers[0].(*nn.ConvLayer)
	n, numWindows := x.Cols, layer0.OutH*layer0.OutW
	// windows[s] is the encoded im2col matrix of sample s (windowLen × numWindows).
	windows := make([][][]int64, n)
	for s := range windows {
		vol, err := tensor.VolumeFromFlat(x.Col(s), layer0.InC, layer0.InH, layer0.InW)
		if err != nil {
			t.Fatal(err)
		}
		col, err := tensor.Im2Col(vol, layer0.K, layer0.K, layer0.Stride, layer0.Pad)
		if err != nil {
			t.Fatal(err)
		}
		windows[s] = mustEncode(t, col)
	}
	yInt := mustEncode(t, y)
	model.ZeroGrad()

	wInt := clampEncode(t, layer0.W, twinConfig.MaxWeight)
	z := tensor.NewDense(layer0.OutSize(), n)
	for s := range windows {
		for f, row := range matMulInt(wInt, windows[s]) {
			for w, v := range row {
				z.Set(f*numWindows+w, s, codec.DecodeProduct(v)+layer0.B.Data[f])
			}
		}
	}
	out, err := model.ForwardFrom(1, z)
	if err != nil {
		t.Fatal(err)
	}
	loss, gradOut := twinHead(t, out, yInt)
	dZ, err := model.BackwardTo(1, gradOut)
	if err != nil {
		t.Fatal(err)
	}
	for s := range windows {
		dzInt := make([][]int64, layer0.Filters)
		for f := range dzInt {
			row := make([]float64, numWindows)
			for w := range row {
				row[w] = dZ.At(f*numWindows+w, s) * gradScale
			}
			if dzInt[f], err = codec.EncodeVec(row); err != nil {
				t.Fatal(err)
			}
		}
		scratch := denseFromInt(matMulT2Int(dzInt, windows[s]), func(v int64) float64 {
			return codec.DecodeProduct(v) / gradScale
		})
		if err := layer0.GradW.AddInPlace(scratch); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < n; s++ {
		for f := 0; f < layer0.Filters; f++ {
			var acc float64
			for w := 0; w < numWindows; w++ {
				acc += dZ.At(f*numWindows+w, s)
			}
			layer0.GradB.Data[f] += acc
		}
	}
	if err := model.ApplyStep(opt); err != nil {
		t.Fatal(err)
	}
	return loss
}

// randomBatch draws inputs in [0, 1) and one-hot labels over classes.
func randomBatch(rng *rand.Rand, features, classes, n int) (x, y *tensor.Dense) {
	x = tensor.NewDense(features, n)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	y = tensor.NewDense(classes, n)
	for j := 0; j < n; j++ {
		y.Set(rng.Intn(classes), j, 1)
	}
	return x, y
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: secure %v, twin %v", what, i, got[i], want[i])
		}
	}
}

// TestSecureStepMatchesFixedPointTwin runs the table of conv and dense steps
// at the 64-bit test group, then at the paper's 256-bit group twice: with
// group's lane kernel as selected, which raises the FEIP denominators of
// a run of columns together, and with it deselected, so both bodies are
// held to the twin.
func TestSecureStepMatchesFixedPointTwin(t *testing.T) {
	const bound = 100_000_000
	twinTable(t, newFixture(t, bound))
	paper, err := group.Embedded(group.PaperBits)
	if err != nil {
		t.Fatal(err)
	}
	eng := newFixtureAt(t, paper, bound)
	t.Run("256-bit", func(t *testing.T) { twinTable(t, eng) })
	t.Run("256-bit-scalar", func(t *testing.T) {
		deselectLanes(t)
		twinTable(t, eng)
	})
}

// twinTable is the differential table over one engine: conv layers over
// every channel count, kernel, stride and padding, and a dense MLP.
func twinTable(t *testing.T, eng *securemat.Engine) {
	const classes = 3
	client, err := core.NewClient(eng, twinConfig.Codec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// step trains the secure model and its twin (built by the same seed)
	// for one iteration each and compares them.
	step := func(t *testing.T, seed int64, build func(*rand.Rand) *nn.Model,
		secure func(*core.Trainer, nn.Optimizer) (*core.Result, error),
		twin func(*nn.Model, nn.Optimizer) float64) {
		t.Helper()
		secureModel, twinModel := build(rand.New(rand.NewSource(seed))), build(rand.New(rand.NewSource(seed)))
		trainer, err := core.NewTrainer(secureModel, eng, twinConfig)
		if err != nil {
			t.Fatal(err)
		}
		optSecure, _ := nn.NewSGD(0.3, 0)
		optTwin, _ := nn.NewSGD(0.3, 0)
		res, err := secure(trainer, optSecure)
		if err != nil {
			t.Fatal(err)
		}
		wantLoss := twin(twinModel, optTwin)
		if math.IsNaN(wantLoss) || math.Float64bits(res.Loss) != math.Float64bits(wantLoss) {
			t.Errorf("loss: secure %v, twin %v", res.Loss, wantLoss)
		}
		for i, p := range twinModel.Layers[0].Params() {
			requireSameBits(t, "first-layer "+p.Name, secureModel.Layers[0].Params()[i].Value.Data, p.Value.Data)
		}
	}

	rng := rand.New(rand.NewSource(17))
	for _, c := range []int{1, 2} {
		for _, k := range []int{2, 3} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1} {
					// The smallest side every (stride, pad) tiles exactly.
					side := k + 2
					filters, n := 1+rng.Intn(3), 1+rng.Intn(3)
					seed := rng.Int63()
					name := fmt.Sprintf("conv/c%d_k%d_s%d_p%d_f%d_n%d", c, k, stride, pad, filters, n)
					t.Run(name, func(t *testing.T) {
						build := func(rng *rand.Rand) *nn.Model {
							conv, err := nn.NewConv(c, side, side, filters, k, stride, pad, rng)
							if err != nil {
								t.Fatal(err)
							}
							conv.B.RandInit(rng, 0.5)
							model, err := nn.NewModel(conv.InSize(), nn.SoftmaxCrossEntropy{},
								conv, nn.NewTanh(), nn.NewDense(conv.OutSize(), classes, rng))
							if err != nil {
								t.Fatal(err)
							}
							return model
						}
						x, y := randomBatch(rand.New(rand.NewSource(seed)), c*side*side, classes, n)
						enc, err := client.EncryptConvBatch(x, y, c, side, side, k, stride, pad)
						if err != nil {
							t.Fatal(err)
						}
						step(t, seed, build,
							func(tr *core.Trainer, opt nn.Optimizer) (*core.Result, error) {
								return tr.TrainConvBatch(enc, opt)
							},
							func(m *nn.Model, opt nn.Optimizer) float64 { return twinConvStep(t, m, x, y, opt) })
					})
				}
			}
		}
	}

	t.Run("dense", func(t *testing.T) {
		const features, n, seed = 6, 3, 23
		build := func(rng *rand.Rand) *nn.Model {
			model, err := nn.NewMLP(features, classes, []int{4}, nn.SoftmaxCrossEntropy{}, rng)
			if err != nil {
				t.Fatal(err)
			}
			model.Layers[0].(*nn.DenseLayer).B.RandInit(rng, 0.5)
			return model
		}
		x, y := randomBatch(rand.New(rand.NewSource(seed)), features, classes, n)
		enc, err := client.EncryptBatch(x, y)
		if err != nil {
			t.Fatal(err)
		}
		step(t, seed, build,
			func(tr *core.Trainer, opt nn.Optimizer) (*core.Result, error) { return tr.TrainBatch(enc, opt) },
			func(m *nn.Model, opt nn.Optimizer) float64 { return twinDenseStep(t, m, x, y, opt) })
	})
}
