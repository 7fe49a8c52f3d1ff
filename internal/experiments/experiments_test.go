package experiments

import (
	"testing"
)

func tinyMicroConfig() MicroConfig {
	return MicroConfig{
		Sizes:       []int{20, 40},
		Ranges:      []ValueRange{{-10, 10}},
		Parallelism: 2,
		Seed:        1,
	}
}

func TestFig3Shape(t *testing.T) {
	points, err := Fig3(tinyMicroConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Encrypt <= 0 || p.KeyDerive <= 0 || p.ComputeSeq <= 0 || p.ComputePar <= 0 {
			t.Errorf("non-positive timing in %+v", p)
		}
	}
	// Linearity shape: doubling the size should not shrink encryption time.
	if points[1].Encrypt < points[0].Encrypt/2 {
		t.Errorf("encryption time shrank with size: %v then %v", points[0].Encrypt, points[1].Encrypt)
	}
}

func TestFig4MulCostsMoreThanFig3Add(t *testing.T) {
	// The paper's headline micro-result: secure multiplication is far more
	// expensive than addition (minutes vs seconds in Fig. 3c/4c) because
	// the discrete-log range grows with the product.
	cfg := MicroConfig{Sizes: []int{30}, Ranges: []ValueRange{{-1000, 1000}}, Parallelism: 1, Seed: 2}
	add, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mul, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mul[0].ComputeSeq <= add[0].ComputeSeq {
		t.Errorf("mul (%v) should cost more than add (%v)", mul[0].ComputeSeq, add[0].ComputeSeq)
	}
}

func TestFig5Shape(t *testing.T) {
	points, err := Fig5(DotConfig{
		Counts:      []int{10, 20},
		Lengths:     []int{5},
		Ranges:      []ValueRange{{1, 10}},
		Parallelism: 2,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Encrypt <= 0 || p.ComputeSeq <= 0 {
			t.Errorf("non-positive timing in %+v", p)
		}
	}
}

func TestFig6ParityShape(t *testing.T) {
	points, err := Fig6(TrainConfig{
		TrainSamples: 60,
		TestSamples:  30,
		BatchSize:    10,
		Epochs:       1,
		TickBatches:  2,
		Parallelism:  2,
		Seed:         4,
		Pool:         4, // 7×7 inputs: tractable on 1-CPU CI boxes
		Hidden:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d ticks, want 3", len(points))
	}
	// The paper's claim: the two curves track each other.
	for _, p := range points {
		diff := p.Plain - p.CryptoNN
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.35 {
			t.Errorf("tick %d: plain %.2f vs crypto %.2f diverged", p.Tick, p.Plain, p.CryptoNN)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := Table3(TrainConfig{
		TrainSamples: 60,
		TestSamples:  40,
		BatchSize:    10,
		Epochs:       2,
		Parallelism:  2,
		Seed:         5,
		Pool:         4,
		Hidden:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PlainAcc) != 2 || len(res.CryptoAcc) != 2 {
		t.Fatalf("epoch accuracy counts %d/%d", len(res.PlainAcc), len(res.CryptoAcc))
	}
	// Accuracy parity at each epoch.
	for e := range res.PlainAcc {
		diff := res.PlainAcc[e] - res.CryptoAcc[e]
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.3 {
			t.Errorf("epoch %d: plain %.2f vs crypto %.2f", e+1, res.PlainAcc[e], res.CryptoAcc[e])
		}
	}
	// Training-time shape: CryptoNN is slower (paper: 57h vs 4h).
	if res.Overhead <= 1 {
		t.Errorf("overhead = %.2f, want > 1", res.Overhead)
	}
	if res.EncryptTime <= 0 {
		t.Error("encryption time not measured")
	}
}

func TestCommOverheadMatchesFormula(t *testing.T) {
	res, err := CommOverhead(CommConfig{Features: 12, HiddenUnits: 4, Batch: 5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// §IV-B2: forward traffic is exactly k×n scalars and k keys.
	if res.MeasuredForwardScalars != res.PredictedScalars {
		t.Errorf("forward scalars %d, formula %d", res.MeasuredForwardScalars, res.PredictedScalars)
	}
	if res.MeasuredForwardKeys != res.PredictedKeys {
		t.Errorf("forward keys %d, formula %d", res.MeasuredForwardKeys, res.PredictedKeys)
	}
	// A full iteration also pays the gradient and label traffic.
	if res.TotalScalars <= res.PredictedScalars {
		t.Error("full iteration should exceed forward-only traffic")
	}
	if res.TotalBOKeys == 0 {
		t.Error("label step should consume FEBO keys")
	}
}

func TestCNNArchRunsOneTick(t *testing.T) {
	if testing.Short() {
		t.Skip("secure convolution run is slow")
	}
	points, err := Fig6(TrainConfig{
		Arch:         ArchCNN,
		TrainSamples: 8,
		TestSamples:  10,
		BatchSize:    4,
		Epochs:       1,
		TickBatches:  1,
		Parallelism:  2,
		Seed:         7,
		Pool:         2, // 14×14 inputs, 3×3 conv: 196 windows/sample
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d ticks", len(points))
	}
}

func TestUnknownArchFails(t *testing.T) {
	if _, err := Fig6(TrainConfig{Arch: "transformer"}); err == nil {
		t.Error("unknown arch should fail")
	}
}

func TestDefaultsFill(t *testing.T) {
	var mc MicroConfig
	mc.fillDefaults()
	if mc.Bits == 0 || len(mc.Sizes) == 0 || len(mc.Ranges) == 0 {
		t.Error("micro defaults incomplete")
	}
	var dc DotConfig
	dc.fillDefaults()
	if dc.Bits == 0 || len(dc.Counts) == 0 || len(dc.Lengths) == 0 {
		t.Error("dot defaults incomplete")
	}
	var tc TrainConfig
	tc.fillDefaults()
	if tc.Arch != ArchMLP || tc.BatchSize == 0 {
		t.Error("train defaults incomplete")
	}
	var cc CommConfig
	cc.fillDefaults()
	if cc.Features == 0 || cc.HiddenUnits == 0 {
		t.Error("comm defaults incomplete")
	}
}
