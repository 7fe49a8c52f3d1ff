package core_test

import (
	"math/rand"
	"testing"

	"cryptonn/internal/core"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/nn"
)

// BenchmarkTrainStep prices one secure training step at the shapes of the
// benchmark's training workloads, on the paper's 256-bit group with an
// in-process authority: "mlp" is train_mlp's 196→8→10 MLP at batch 8
// (Trainer.TrainBatch), "cnn" train_cnn's nn.NewConvNetSmall(14, 2) at
// batch 3 (Trainer.TrainConvBatch), both under its configuration (codec
// default, MaxWeight 2, GradScale 10). Eight batches are encrypted before
// the timer and cycled, so an iteration is the server's step alone.
// securemat/doc.go's step-profile table is CPU profiles of these rows.
func BenchmarkTrainStep(b *testing.B) {
	paper, err := group.Embedded(group.PaperBits)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Codec: fixedpoint.Default(), MaxWeight: 2, GradScale: 10}
	eng := newFixtureAt(b, paper, 1)
	client, err := core.NewClient(eng, cfg.Codec, nil)
	if err != nil {
		b.Fatal(err)
	}
	const side, classes = 14, 10
	rng := rand.New(rand.NewSource(3))
	for _, shape := range []struct {
		name  string
		batch int
		model func() (*nn.Model, error)
	}{
		{"mlp", 8, func() (*nn.Model, error) {
			return nn.NewMLP(side*side, classes, []int{8}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(1)))
		}},
		{"cnn", 3, func() (*nn.Model, error) { return nn.NewConvNetSmall(side, 2, rand.New(rand.NewSource(1))) }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			model, err := shape.model()
			if err != nil {
				b.Fatal(err)
			}
			trainer, err := core.NewTrainer(model, eng, cfg)
			if err != nil {
				b.Fatal(err)
			}
			opt, _ := nn.NewSGD(0.1, 0)
			var steps []func() (*core.Result, error)
			for range 8 {
				x, y := randomBatch(rng, side*side, classes, shape.batch)
				if shape.name == "mlp" {
					enc, err := client.EncryptBatch(x, y)
					if err != nil {
						b.Fatal(err)
					}
					steps = append(steps, func() (*core.Result, error) { return trainer.TrainBatch(enc, opt) })
				} else {
					enc, err := client.EncryptConvBatch(x, y, 1, side, side, 3, 1, 1)
					if err != nil {
						b.Fatal(err)
					}
					steps = append(steps, func() (*core.Result, error) { return trainer.TrainConvBatch(enc, opt) })
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := steps[i%len(steps)](); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
