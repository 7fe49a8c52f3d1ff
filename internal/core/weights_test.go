package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/group"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

// predictFixture builds a trainer over an in-process authority on the test
// group for a features→hidden→3 MLP (hidden 0: a linear model), a client
// on the same authority, and an encrypted prediction batch of n samples
// with entries in [0, 1).
func predictFixture(t *testing.T, features, hidden, n int) (*Trainer, *tensor.Dense, *EncryptedBatch) {
	t.Helper()
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var widths []int
	if hidden > 0 {
		widths = []int{hidden}
	}
	model, err := nn.NewMLP(features, 3, widths, nn.SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(model, eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewDense(features, n)
	for i := range x.Data {
		x.Data[i] = math.Round(rng.Float64()*100) / 100
	}
	enc, err := client.EncryptPredictBatch(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	return tr, x, enc
}

// TestPredictSeesInPlaceWeightEdit: the forward product's encoded weights
// are rebuilt when W's contents change, so editing one weight in W's own
// backing array between two Predicts answers with the edited model.
func TestPredictSeesInPlaceWeightEdit(t *testing.T) {
	tr, x, enc := predictFixture(t, 4, 0, 5)
	layer0 := tr.Model.Layers[0].(*nn.DenseLayer)
	before, err := tr.Predict(enc)
	if err != nil {
		t.Fatal(err)
	}
	const delta = 1.5
	layer0.W.Data[0] += delta // W[0][0], in place
	after, err := tr.Predict(enc)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := tr.Model.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	// The linear model's logit row 0 moves by delta·x[0][j]; quantization
	// at two decimals keeps both sides within 0.05 of the plaintext.
	for j := 0; j < x.Cols; j++ {
		if got, want := after.Output.At(0, j), plain.At(0, j); math.Abs(got-want) > 0.05 {
			t.Errorf("sample %d: secure logit %v after the edit, plaintext %v", j, got, want)
		}
		if moved, want := after.Output.At(0, j)-before.Output.At(0, j), delta*x.At(0, j); math.Abs(moved-want) > 0.05 {
			t.Errorf("sample %d: logit moved by %v, want %v", j, moved, want)
		}
	}
}

// TestPredictReusesWeightEncoding: a second Predict on unchanged W hands
// the forward product the encoding the first one built, and allocates
// none of it: the look-up allocates nothing, and a Predict costs at least
// W's rows + 1 allocations fewer than one made to re-encode the same W.
func TestPredictReusesWeightEncoding(t *testing.T) {
	const hidden = 16
	tr, _, enc := predictFixture(t, 6, hidden, 4)
	layer0 := tr.Model.Layers[0].(*nn.DenseLayer)
	predict := func() {
		if _, err := tr.Predict(enc); err != nil {
			t.Fatal(err)
		}
	}
	predict()
	first := &tr.w0[0][0]
	predict()
	if &tr.w0[0][0] != first {
		t.Fatal("a Predict on unchanged W re-encoded it")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := tr.servingWeights(layer0.W); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("servingWeights on unchanged W: %v allocations, want 0", allocs)
	}
	warm := testing.AllocsPerRun(10, predict)
	reencode := testing.AllocsPerRun(10, func() {
		tr.w0 = nil // same W, so the engine's dot-key cache still hits
		predict()
	})
	if reencode-warm < hidden+1 {
		t.Errorf("Predict on unchanged W: %v allocations, re-encoding it: %v; want at least %d fewer",
			warm, reencode, hidden+1)
	}
}

// TestPredictRejectsEmptyBatch: a nil batch or one without its input
// ciphertexts is a shape error, not a panic.
func TestPredictRejectsEmptyBatch(t *testing.T) {
	tr, _, _ := predictFixture(t, 4, 0, 1)
	for name, enc := range map[string]*EncryptedBatch{
		"nil batch":  nil,
		"nil inputs": {Features: 4, Classes: 3, N: 1},
	} {
		if _, err := tr.Predict(enc); !errors.Is(err, securemat.ErrShape) {
			t.Errorf("%s: Predict err = %v, want securemat.ErrShape", name, err)
		}
	}
}
