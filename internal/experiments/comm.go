package experiments

import (
	"fmt"
	"math/rand"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

// CommConfig parameterizes the key-traffic analysis of §IV-B2: "for
// training a two-class classification NN model with k units in the first
// hidden layer over X_{m×n}, each iteration the server sends k×n×|w| to
// the authority and acquires keys of size k×|sk|".
type CommConfig struct {
	// Bits selects the group size (zero: 64).
	Bits int
	// Features is n, HiddenUnits is k, Batch is m.
	Features, HiddenUnits, Batch int
	// Seed drives data and init.
	Seed int64
}

func (c *CommConfig) fillDefaults() {
	if c.Bits == 0 {
		c.Bits = group.TestBits
	}
	if c.Features == 0 {
		c.Features = 20
	}
	if c.HiddenUnits == 0 {
		c.HiddenUnits = 8
	}
	if c.Batch == 0 {
		c.Batch = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// CommResult compares the paper's predicted per-iteration key traffic with
// the measured authority counters.
type CommResult struct {
	// PredictedScalars is the k×n weight-scalar upload of the secure
	// feed-forward step, per the paper's formula.
	PredictedScalars uint64
	// PredictedKeys is k (one derived key per hidden unit), per the
	// paper's formula.
	PredictedKeys uint64
	// MeasuredForwardScalars / MeasuredForwardKeys are the counters after
	// the secure feed-forward step alone.
	MeasuredForwardScalars, MeasuredForwardKeys uint64
	// TotalScalars / TotalIPKeys / TotalBOKeys are the counters after the
	// full iteration (including the secure gradient and label steps the
	// formula does not count).
	TotalScalars, TotalIPKeys, TotalBOKeys uint64
}

// CommOverhead runs one CryptoNN iteration on a k-unit two-class model and
// reads the authority's key-issuance counters, verifying the paper's
// k×n×|w| forward-traffic formula and quantifying the full-iteration
// traffic the formula omits.
func CommOverhead(cfg CommConfig) (*CommResult, error) {
	cfg.fillDefaults()
	params, err := group.Embedded(cfg.Bits)
	if err != nil {
		return nil, err
	}
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		return nil, err
	}
	codec := fixedpoint.Default()
	rng := rand.New(rand.NewSource(cfg.Seed))
	model, err := nn.NewBinaryClassifier(cfg.Features, cfg.HiddenUnits, rng)
	if err != nil {
		return nil, err
	}
	// This experiment reads the authority's issuance counters, so each
	// measured phase must pay its raw key traffic (the quantity the paper's
	// formula predicts). Both phases run the same W and an engine remembers
	// the keys of the last one, so each phase gets its own session.
	newTrainer := func() (*core.Trainer, *securemat.Engine, error) {
		eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
		if err != nil {
			return nil, nil, err
		}
		tr, err := core.NewTrainer(model, eng, core.Config{Codec: codec, MaxWeight: 4})
		return tr, eng, err
	}
	forward, eng, err := newTrainer()
	if err != nil {
		return nil, err
	}
	iteration, _, err := newTrainer()
	if err != nil {
		return nil, err
	}
	client, err := core.NewClient(eng, codec, nil)
	if err != nil {
		return nil, err
	}

	x := tensor.NewDense(cfg.Features, cfg.Batch)
	x.RandInit(rng, 1)
	y := tensor.NewDense(1, cfg.Batch)
	for j := 0; j < cfg.Batch; j++ {
		if rng.Intn(2) == 1 {
			y.Set(0, j, 1)
		}
	}
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		return nil, err
	}

	res := &CommResult{
		PredictedScalars: uint64(cfg.HiddenUnits) * uint64(cfg.Features),
		PredictedKeys:    uint64(cfg.HiddenUnits),
	}

	// Measure the forward step alone via Predict (secure feed-forward
	// only).
	auth.ResetStats()
	if _, err := forward.Predict(enc); err != nil {
		return nil, fmt.Errorf("experiments: comm forward: %w", err)
	}
	st := auth.Stats()
	res.MeasuredForwardScalars = st.IPKeyScalars
	res.MeasuredForwardKeys = st.IPKeys

	// Measure a full iteration.
	auth.ResetStats()
	opt, err := nn.NewSGD(0.1, 0)
	if err != nil {
		return nil, err
	}
	if _, err := iteration.TrainBatch(enc, opt); err != nil {
		return nil, fmt.Errorf("experiments: comm iteration: %w", err)
	}
	st = auth.Stats()
	res.TotalScalars = st.IPKeyScalars
	res.TotalIPKeys = st.IPKeys
	res.TotalBOKeys = st.BOKeys
	return res, nil
}
