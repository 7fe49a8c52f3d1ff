package securemat

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
)

// feipOnly serves FEIP master public keys at the 256-bit group, one per
// dimension, which is all the evaluator asks its KeyService for.
type feipOnly struct {
	params *group.Params
	mpks   map[int]*feip.MasterPublicKey
	msks   map[int]*feip.MasterSecretKey
}

var errFEIPOnly = errors.New("feipOnly serves FEIP public keys only")

func (s *feipOnly) setup(t *testing.T, eta int) (*feip.MasterPublicKey, *feip.MasterSecretKey) {
	if _, ok := s.mpks[eta]; !ok {
		mpk, msk, err := feip.Setup(s.params, eta, rand.New(rand.NewSource(int64(eta))))
		if err != nil {
			t.Fatal(err)
		}
		s.mpks[eta], s.msks[eta] = mpk, msk
	}
	return s.mpks[eta], s.msks[eta]
}

func (s *feipOnly) FEIPPublic(eta int) (*feip.MasterPublicKey, error) {
	if mpk, ok := s.mpks[eta]; ok {
		return mpk, nil
	}
	return nil, fmt.Errorf("no key of dimension %d", eta)
}
func (s *feipOnly) FEBOPublic() (*febo.PublicKey, error)     { return nil, errFEIPOnly }
func (s *feipOnly) IPKey([]int64) (*feip.FunctionKey, error) { return nil, errFEIPOnly }
func (s *feipOnly) BOKey(*big.Int, febo.Op, int64) (*febo.FunctionKey, error) {
	return nil, errFEIPOnly
}

// TestEvalColumnsLanesMatchScalar runs the FEIP evaluator at the 256-bit
// group, where group's lane kernel raises each run of columns that share a
// key slice in one call, on the shapes the benchmark workloads hand it,
// once as selected and once with the lanes deselected. Every column's
// result slab must be the same limb for limb, and g^{⟨w_i, x_j⟩}. The
// shapes: train_cnn's forward (588 windows of 9 under its 2 filter keys),
// train_mlp's gradient (196 feature rows of a batch of 8 under 8 keys), one
// sample of the conv gradient (9 rows of 196 under 2 keys), and columns
// whose key slice changes in runs of 1 to 9, so chunks mix two slices.
func TestEvalColumnsLanesMatchScalar(t *testing.T) {
	if !groupUseLanes {
		t.Skip("no lane kernel: the CPU lacks AVX512F or AVX512_IFMA, or the OS has not enabled the ZMM state")
	}
	params, err := group.Embedded(group.PaperBits)
	if err != nil {
		t.Fatal(err)
	}
	ks := &feipOnly{params: params, mpks: map[int]*feip.MasterPublicKey{}, msks: map[int]*feip.MasterSecretKey{}}
	eng, err := NewEngine(ks, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mc := params.Mont()
	k := mc.Limbs()
	rng := rand.New(rand.NewSource(41))
	for _, shape := range []struct {
		name             string
		cols, eta, wRows int
		runs             []int // lengths of the runs under one key slice, cycled; nil: one slice
	}{
		{"train_cnn forward", 588, 9, 2, nil},
		{"train_mlp gradient", 196, 8, 8, nil},
		{"conv gradient sample", 9, 196, 2, nil},
		{"two key slices", 40, 9, 2, []int{1, 3, 9, 2, 5, 1, 8}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			mpk, msk := ks.setup(t, shape.eta)
			w := make([][]int64, shape.wRows)
			for i := range w {
				w[i] = make([]int64, shape.eta)
				for c := range w[i] {
					w[i][c] = rng.Int63n(2001) - 1000
				}
			}
			// Two key slices with the same values: the evaluator tells
			// slices apart by identity, so runs end where the slice changes.
			var slices2 [2][]*feip.FunctionKey
			for s := range slices2 {
				for _, y := range w {
					fk, err := feip.KeyDerive(params, msk, y)
					if err != nil {
						t.Fatal(err)
					}
					slices2[s] = append(slices2[s], fk)
				}
			}
			support := identity(shape.eta)
			cols := make([]column, shape.cols)
			xs := make([][]int64, shape.cols)
			slice, run, left := 0, 0, 0
			for j := range cols {
				if shape.runs != nil && left == 0 {
					slice, left = 1-slice, shape.runs[run%len(shape.runs)]
					run++
				}
				left--
				xs[j] = make([]int64, shape.eta)
				for c := range xs[j] {
					xs[j][c] = rng.Int63n(201) - 100
				}
				ct, err := feip.Encrypt(mpk, xs[j], rng)
				if err != nil {
					t.Fatal(err)
				}
				cols[j] = column{ct0: ct.Ct0, coords: ct.Ct, support: support, keys: slices2[slice]}
			}
			eval := func() [][]uint64 {
				out := make([][]uint64, len(cols))
				err := eng.evalColumns(cols, w, ComputeOptions{}, func(j int, gammas []uint64) error {
					out[j] = slices.Clone(gammas)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			lanes := eval()
			deselectLanes(t)
			scalar := eval()
			want := mc.Elem()
			for j := range cols {
				if !slices.Equal(lanes[j], scalar[j]) {
					t.Fatalf("column %d: the lanes give %x, the scalar body %x", j, lanes[j], scalar[j])
				}
				for i, y := range w {
					var dot int64
					for c, v := range y {
						dot += v * xs[j][c]
					}
					params.PowGInt64Mont(want, dot)
					if !slices.Equal(lanes[j][i*k:(i+1)*k], want) {
						t.Fatalf("column %d, row %d: not g^%d", j, i, dot)
					}
				}
			}
		})
	}
}

// TestEvalColumnsRecodesKeysAcrossProducts pins the evaluator's scratch,
// which outlives a product, to the keys of the product at hand: two
// products on one engine whose key slices share one backing array (the
// second overwrites the first's keys in place, as a slice allocated where a
// collected one lay would) must each decrypt to g^{⟨w_i, x_j⟩}.
func TestEvalColumnsRecodesKeysAcrossProducts(t *testing.T) {
	params := group.TestParams()
	ks := &feipOnly{params: params, mpks: map[int]*feip.MasterPublicKey{}, msks: map[int]*feip.MasterSecretKey{}}
	eng, err := NewEngine(ks, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const eta, wRows = 6, 3
	mpk, msk := ks.setup(t, eta)
	rng := rand.New(rand.NewSource(9))
	keys := make([]*feip.FunctionKey, wRows)
	cols := make([]column, 5)
	xs := make([][]int64, len(cols))
	for j := range cols {
		xs[j] = make([]int64, eta)
		for c := range xs[j] {
			xs[j][c] = rng.Int63n(21) - 10
		}
		ct, err := feip.Encrypt(mpk, xs[j], rng)
		if err != nil {
			t.Fatal(err)
		}
		cols[j] = column{ct0: ct.Ct0, coords: ct.Ct, support: identity(eta), keys: keys}
	}
	mc := params.Mont()
	k := mc.Limbs()
	want := mc.Elem()
	for product := range 2 {
		w := make([][]int64, wRows)
		for i := range w {
			w[i] = make([]int64, eta)
			for c := range w[i] {
				w[i][c] = rng.Int63n(21) - 10
			}
			if keys[i], err = feip.KeyDerive(params, msk, w[i]); err != nil {
				t.Fatal(err)
			}
		}
		err := eng.evalColumns(cols, w, ComputeOptions{Parallelism: 1}, func(j int, gammas []uint64) error {
			for i, y := range w {
				var dot int64
				for c, v := range y {
					dot += v * xs[j][c]
				}
				if params.PowGInt64Mont(want, dot); !slices.Equal(gammas[i*k:(i+1)*k], want) {
					return fmt.Errorf("product %d, column %d, row %d: not g^%d", product, j, i, dot)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
