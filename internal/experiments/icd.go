// ICD: encrypted extreme multi-label classification over sparse inputs.
//
// The workload the sparse engine exists for — ICD coding over medical
// records: bag-of-words inputs with η in the thousands where >95% of
// coordinates are zero, and hundreds-to-thousands of output labels where
// only the top-k logits matter. The sweep measures, per input density,
// the sparse encryption path against the dense one and the top-k
// decryption head against the full per-label solve, cross-checking every
// secure result against plaintext.

package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/dlog"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
)

// ICDConfig parameterizes the sparse multi-label sweep.
type ICDConfig struct {
	// Bits selects the group size (paper setting: 256; zero selects 64).
	Bits int
	// Eta is the bag-of-words vocabulary size (input dimension).
	Eta int
	// Labels is the number of output codes (W rows).
	Labels int
	// Batch is the number of samples (encrypted columns) per measurement.
	Batch int
	// Densities are the input non-zero fractions to sweep.
	Densities []float64
	// TopK is the number of logits decrypted per sample by the top-k head.
	TopK int
	// SkipDense omits the dense-path reference measurements (they dominate
	// wall-clock at paper scale; the sparse numbers are unaffected).
	SkipDense bool
	// Seed makes the sweep deterministic.
	Seed int64
}

func (c *ICDConfig) fillDefaults() {
	if c.Bits == 0 {
		c.Bits = group.TestBits
	}
	if c.Eta == 0 {
		c.Eta = 2000
	}
	if c.Labels == 0 {
		c.Labels = 200
	}
	if c.Batch == 0 {
		c.Batch = 4
	}
	if len(c.Densities) == 0 {
		c.Densities = []float64{0.005, 0.01, 0.05}
	}
	if c.TopK == 0 {
		c.TopK = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ICDPoint is one measured density point.
type ICDPoint struct {
	Density       float64
	Nnz           int           // encrypted coordinates across the batch
	EncryptSparse time.Duration // coordinate-form encryption of the batch
	EncryptDense  time.Duration // dense path at the same η (zero if skipped)
	KeyDerive     time.Duration // support-masked keys for all labels
	TopKCompute   time.Duration // top-k head: k dlogs per sample
	FullCompute   time.Duration // full head: every label solved (zero if skipped)
	TopKSolved    uint64        // dlogs solved by the top-k scans
	TopKSkipped   uint64        // dlogs the top-k scans avoided
}

// ICD runs the sparse multi-label sweep: one point per density.
func ICD(cfg ICDConfig) ([]ICDPoint, error) {
	cfg.fillDefaults()
	params, err := group.Embedded(cfg.Bits)
	if err != nil {
		return nil, err
	}
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		return nil, err
	}
	// Word counts in [1, 8], label weights in [-8, 8]: the logit bound is
	// the worst-case support size times the per-term product.
	const vMax, wMax = 8, 8
	maxDensity := cfg.Densities[0]
	for _, d := range cfg.Densities {
		if d > maxDensity {
			maxDensity = d
		}
	}
	// The support size is binomial around density·η; bound on twice the
	// mean so the sampled batches stay comfortably inside.
	maxNnz := 2*int(maxDensity*float64(cfg.Eta)) + 16
	if maxNnz > cfg.Eta {
		maxNnz = cfg.Eta
	}
	bound := int64(maxNnz)*vMax*wMax + 1
	solver, err := dlog.NewSolver(params, bound)
	if err != nil {
		return nil, err
	}
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		return nil, err
	}
	eng = eng.WithSolver(solver)
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := randMatrix(rng, cfg.Labels, cfg.Eta, ValueRange{-wMax, wMax})

	// Warm the engine's per-η public key and group tables so one-time
	// precompute is not charged to the first density point.
	warm := make([][]int64, cfg.Eta)
	for i := range warm {
		warm[i] = []int64{0}
	}
	warm[0][0] = 1
	if _, err := eng.EncryptSparse(warm, securemat.EncryptOptions{SkipElems: true}); err != nil {
		return nil, err
	}

	var points []ICDPoint
	for _, density := range cfg.Densities {
		p, err := icdPoint(eng, rng, w, cfg, density, vMax)
		if err != nil {
			return nil, fmt.Errorf("experiments: icd density %g: %w", density, err)
		}
		points = append(points, p)
	}
	return points, nil
}

func icdPoint(eng *securemat.Engine, rng *rand.Rand, w [][]int64, cfg ICDConfig, density float64, vMax int64) (ICDPoint, error) {
	// Synthetic bag-of-words batch: each column carries ~density·η word
	// counts in [1, vMax].
	x := make([][]int64, cfg.Eta)
	for i := range x {
		x[i] = make([]int64, cfg.Batch)
	}
	for j := 0; j < cfg.Batch; j++ {
		for i := 0; i < cfg.Eta; i++ {
			if rng.Float64() < density {
				x[i][j] = 1 + rng.Int63n(vMax)
			}
		}
	}
	encOpts := securemat.EncryptOptions{SkipElems: true}

	before := eng.SparseStats()
	start := time.Now()
	enc, err := eng.EncryptSparse(x, encOpts)
	if err != nil {
		return ICDPoint{}, err
	}
	sparseEnc := time.Since(start)

	var denseEnc time.Duration
	if !cfg.SkipDense {
		start = time.Now()
		if _, err := eng.Encrypt(x, encOpts); err != nil {
			return ICDPoint{}, err
		}
		denseEnc = time.Since(start)
	}

	start = time.Now()
	keys, err := eng.SparseDotKeys(enc, w)
	if err != nil {
		return ICDPoint{}, err
	}
	keyDur := time.Since(start)

	// The client's quantization range is public: vMax caps every plaintext
	// entry, so the top-k head can start its scan at each column's logit
	// ceiling instead of walking the empty ladder prefix.
	copts := securemat.ComputeOptions{InputMagnitude: vMax}
	start = time.Now()
	hits, err := eng.SecureDotTopK(enc, keys, w, cfg.TopK, copts)
	if err != nil {
		return ICDPoint{}, err
	}
	topkDur := time.Since(start)

	var fullDur time.Duration
	var full [][]int64
	if !cfg.SkipDense {
		start = time.Now()
		full, err = eng.SecureDotSparse(enc, keys, w, copts)
		if err != nil {
			return ICDPoint{}, err
		}
		fullDur = time.Since(start)
	}

	// Cross-check the top-k head (and, when measured, the full head)
	// against the plaintext product.
	for j := 0; j < cfg.Batch; j++ {
		col := make([]int64, cfg.Labels)
		for i := 0; i < cfg.Labels; i++ {
			var dot int64
			for t := 0; t < cfg.Eta; t++ {
				dot += w[i][t] * x[t][j]
			}
			col[i] = dot
			if full != nil && full[i][j] != dot {
				return ICDPoint{}, fmt.Errorf("full solve mismatch at (%d,%d)", i, j)
			}
		}
		order := make([]int, cfg.Labels)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return col[order[a]] > col[order[b]] })
		for r, h := range hits[j] {
			if want := order[r]; h.Index != want || h.Value != col[want] {
				return ICDPoint{}, fmt.Errorf("top-k mismatch: sample %d rank %d got (%d,%d) want (%d,%d)",
					j, r, h.Index, h.Value, want, col[want])
			}
		}
	}
	after := eng.SparseStats()
	return ICDPoint{
		Density:       density,
		Nnz:           enc.Nnz(),
		EncryptSparse: sparseEnc,
		EncryptDense:  denseEnc,
		KeyDerive:     keyDur,
		TopKCompute:   topkDur,
		FullCompute:   fullDur,
		TopKSolved:    after.TopKSolved - before.TopKSolved,
		TopKSkipped:   after.TopKSkipped - before.TopKSkipped,
	}, nil
}
