// Package experiments regenerates every table and figure of the paper's
// evaluation section (§IV-B) over this reproduction's substrates:
//
//	Fig. 3 (a–d)  element-wise addition micro-benchmarks    → Fig3
//	Fig. 4 (a–d)  element-wise multiplication               → Fig4
//	Fig. 5 (a–d)  dot-product                               → Fig5
//	Fig. 6        avg batch accuracy, LeNet-5 vs CryptoCNN  → Train
//	Table III     accuracy + training time comparison       → Train (same run)
//	§IV-B2        key-traffic communication overhead        → CommOverhead
//
// plus the sparse extreme multi-label sweep (ICD). Functions return
// structured series; cmd/cryptonn-bench, their one driver, renders them in
// the paper's layout (TrainResult renders its own two tables).
// Sizes and the security parameter are configurable: the paper's exact
// setting (256-bit group, 2k–10k elements, full MNIST, 2 epochs) is
// reachable but takes the paper's half-hours-to-days; the defaults are
// scaled down so the whole suite runs on a laptop in minutes. What a
// scaled run keeps is each figure's shape — how cost grows with size and
// value range, the seq/par gap, the twins' accuracy parity — not the
// paper's absolute times.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
)

// ValueRange is a plaintext sampling range [Lo, Hi], matching the legends
// of Fig. 3–5.
type ValueRange struct {
	Lo, Hi int64
}

func (r ValueRange) String() string { return fmt.Sprintf("[%d,%d]", r.Lo, r.Hi) }

// MicroConfig parameterizes the element-wise micro-benchmarks (Fig. 3/4).
type MicroConfig struct {
	// Bits selects the group size; the paper uses 256. Zero selects the
	// fast 64-bit test group.
	Bits int
	// Sizes are element counts per measurement (the paper sweeps
	// 2k..10k).
	Sizes []int
	// Ranges are the value ranges of the figure legends.
	Ranges []ValueRange
	// Seed makes the sweep deterministic.
	Seed int64
}

func (c *MicroConfig) fillDefaults() {
	if c.Bits == 0 {
		c.Bits = group.TestBits
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{200, 400, 600, 800, 1000}
	}
	if len(c.Ranges) == 0 {
		c.Ranges = []ValueRange{{-10, 10}, {-100, 100}, {-1000, 1000}}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// MicroPoint is one measured point of Fig. 3 or Fig. 4: the four panels
// are the four duration columns.
type MicroPoint struct {
	Size       int
	Range      ValueRange
	Encrypt    time.Duration // panel (a): pre-processing for encryption
	KeyDerive  time.Duration // panel (b): pre-processing for function key
	ComputeSeq time.Duration // panel (c): secure computation, sequential
	ComputePar time.Duration // panel (c)/(d): secure computation, parallel
}

// Fig3 measures secure element-wise addition (Fig. 3 a–d).
func Fig3(cfg MicroConfig) ([]MicroPoint, error) {
	return microSweep(cfg, febo.OpAdd)
}

// Fig4 measures secure element-wise multiplication (Fig. 4 a–d).
func Fig4(cfg MicroConfig) ([]MicroPoint, error) {
	return microSweep(cfg, febo.OpMul)
}

func microSweep(cfg MicroConfig, op febo.Op) ([]MicroPoint, error) {
	cfg.fillDefaults()
	params, err := group.Embedded(cfg.Bits)
	if err != nil {
		return nil, err
	}
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		return nil, err
	}
	base, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		return nil, err
	}
	// Keys fetched and tables built first: every point times the same work.
	if _, err := base.EncryptElems([][]int64{{0}}); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var points []MicroPoint
	for _, r := range cfg.Ranges {
		// Bound covers the worst result of the op over the range.
		maxAbs := r.Hi
		if -r.Lo > maxAbs {
			maxAbs = -r.Lo
		}
		bound := 2 * maxAbs
		if op == febo.OpMul {
			bound = maxAbs*maxAbs + 1
		}
		solver, err := dlog.NewSolver(params, bound)
		if err != nil {
			return nil, err
		}
		eng := base.WithSolver(solver)
		for _, size := range cfg.Sizes {
			p, err := microPoint(eng, rng, op, size, r)
			if err != nil {
				return nil, fmt.Errorf("experiments: size %d range %s: %w", size, r, err)
			}
			points = append(points, p)
		}
	}
	return points, nil
}

func microPoint(eng *securemat.Engine, rng *rand.Rand, op febo.Op, size int, r ValueRange) (MicroPoint, error) {
	// Lay the elements out as a 1×size matrix, like the paper's flat
	// element-count x-axis.
	x := randMatrix(rng, 1, size, r)
	y := randMatrix(rng, 1, size, r)

	// Panel (a): element ciphertexts alone, all an element-wise op reads.
	start := time.Now()
	enc, err := eng.EncryptElems(x)
	if err != nil {
		return MicroPoint{}, err
	}
	encDur := time.Since(start)

	start = time.Now()
	keys, err := eng.ElementwiseKeys(enc, op, y)
	if err != nil {
		return MicroPoint{}, err
	}
	keyDur := time.Since(start)

	start = time.Now()
	seq, err := eng.SecureElementwise(enc, keys, op, y, securemat.ComputeOptions{Parallelism: 1})
	if err != nil {
		return MicroPoint{}, err
	}
	seqDur := time.Since(start)

	start = time.Now()
	parRes, err := eng.SecureElementwise(enc, keys, op, y, securemat.ComputeOptions{})
	if err != nil {
		return MicroPoint{}, err
	}
	parDur := time.Since(start)

	// Cross-check both paths against plaintext.
	for j := 0; j < size; j++ {
		want, err := op.Apply(x[0][j], y[0][j])
		if err != nil {
			return MicroPoint{}, err
		}
		if seq[0][j] != want || parRes[0][j] != want {
			return MicroPoint{}, fmt.Errorf("experiments: secure %s mismatch at %d", op, j)
		}
	}
	return MicroPoint{Size: size, Range: r, Encrypt: encDur, KeyDerive: keyDur, ComputeSeq: seqDur, ComputePar: parDur}, nil
}

func randMatrix(rng *rand.Rand, rows, cols int, r ValueRange) [][]int64 {
	m := make([][]int64, rows)
	span := r.Hi - r.Lo + 1
	for i := range m {
		m[i] = make([]int64, cols)
		for j := range m[i] {
			m[i][j] = r.Lo + rng.Int63n(span)
		}
	}
	return m
}

// DotConfig parameterizes the dot-product sweep (Fig. 5).
type DotConfig struct {
	// Bits selects the group size (paper: 256; zero selects 64).
	Bits int
	// Counts are the numbers of vectors (the paper sweeps 2k–10k).
	Counts []int
	// Lengths are vector lengths l (paper: 10 and 100).
	Lengths []int
	// Ranges are value ranges v (paper: [1,10] and [1,100]).
	Ranges []ValueRange
	// Seed makes the sweep deterministic.
	Seed int64
}

func (c *DotConfig) fillDefaults() {
	if c.Bits == 0 {
		c.Bits = group.TestBits
	}
	if len(c.Counts) == 0 {
		c.Counts = []int{100, 200, 300, 400, 500}
	}
	if len(c.Lengths) == 0 {
		c.Lengths = []int{10, 100}
	}
	if len(c.Ranges) == 0 {
		c.Ranges = []ValueRange{{1, 10}, {1, 100}}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// DotPoint is one measured point of Fig. 5.
type DotPoint struct {
	Count      int
	Length     int
	Range      ValueRange
	Encrypt    time.Duration
	KeyDerive  time.Duration
	ComputeSeq time.Duration
	ComputePar time.Duration
}

// Fig5 measures the secure dot-product (Fig. 5 a–d): count vectors of
// length l are encrypted; one weight vector of the same length is keyed;
// the secure computation evaluates every ⟨w, x_i⟩.
func Fig5(cfg DotConfig) ([]DotPoint, error) {
	cfg.fillDefaults()
	params, err := group.Embedded(cfg.Bits)
	if err != nil {
		return nil, err
	}
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		return nil, err
	}
	base, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var points []DotPoint
	for _, l := range cfg.Lengths {
		for _, r := range cfg.Ranges {
			bound := int64(l)*r.Hi*r.Hi + 1
			solver, err := dlog.NewSolver(params, bound)
			if err != nil {
				return nil, err
			}
			eng := base.WithSolver(solver)
			for _, count := range cfg.Counts {
				p, err := dotPoint(eng, rng, count, l, r)
				if err != nil {
					return nil, fmt.Errorf("experiments: dot count %d l %d %s: %w", count, l, r, err)
				}
				points = append(points, p)
			}
		}
	}
	return points, nil
}

func dotPoint(eng *securemat.Engine, rng *rand.Rand, count, l int, r ValueRange) (DotPoint, error) {
	// X is (l × count): one vector per column, exactly the secure matrix
	// layout; W is a single weight row.
	x := randMatrix(rng, l, count, r)
	w := randMatrix(rng, 1, l, r)

	start := time.Now()
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		return DotPoint{}, err
	}
	encDur := time.Since(start)

	start = time.Now()
	keys, err := eng.DotKeys(w)
	if err != nil {
		return DotPoint{}, err
	}
	keyDur := time.Since(start)

	start = time.Now()
	seq, err := eng.SecureDot(enc, keys, w, securemat.ComputeOptions{Parallelism: 1})
	if err != nil {
		return DotPoint{}, err
	}
	seqDur := time.Since(start)

	start = time.Now()
	parRes, err := eng.SecureDot(enc, keys, w, securemat.ComputeOptions{})
	if err != nil {
		return DotPoint{}, err
	}
	parDur := time.Since(start)

	for j := 0; j < count; j++ {
		var want int64
		for i := 0; i < l; i++ {
			want += w[0][i] * x[i][j]
		}
		if seq[0][j] != want || parRes[0][j] != want {
			return DotPoint{}, fmt.Errorf("experiments: secure dot mismatch at %d", j)
		}
	}
	return DotPoint{Count: count, Length: l, Range: r, Encrypt: encDur, KeyDerive: keyDur, ComputeSeq: seqDur, ComputePar: parDur}, nil
}
