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

// segment is a run of test columns of one kind: "dense" columns share the
// identity support and decrypt under the dense key slice named by slice;
// "sparse" ones carry a random support of their own and the keys derived on
// it; "empty" ones an empty support of their own, each its own zero-length
// slice, under one shared slice of keys on the empty support. "left" and
// "right" columns share the supports [0, η−1) and [1, η) and one key slice:
// W vanishes on coordinates 0 and η−1 wherever they appear, so the keys
// derived on either support are the same.
type segment struct {
	kind  string
	cols  int
	slice int
}

// alternating is total dense columns in runs of the given lengths, cycled,
// under the two dense key slices in turn.
func alternating(total int, runs ...int) []segment {
	var segs []segment
	for r := 0; total > 0; r++ {
		n := min(runs[r%len(runs)], total)
		segs = append(segs, segment{kind: "dense", cols: n, slice: r % 2})
		total -= n
	}
	return segs
}

// TestEvalColumnsLanesMatchScalar runs the FEIP evaluator at the 256-bit
// group, where group's lane kernel raises each run of columns that share a
// key slice in one call and evaluates the numerators of each run that
// shares a support in another, once as selected and once with the lanes
// deselected. Every column's result slab must be the same limb for limb, and
// g^{⟨w_i, x_j⟩}. The shapes: train_cnn's forward (588 windows of 9 under
// its 2 filter keys), train_mlp's gradient (196 feature rows of a batch of 8
// under 8 keys), one sample of the conv gradient (9 rows of 196 under 2
// keys, which chunk as 8 + 1), columns whose key slice changes in runs of 1
// to 9, so a change cuts a run on one support and chunks mix two slices;
// sparse columns whose supports all differ, so every column runs alone;
// empty-support columns among dense ones; and runs under one key slice whose
// support changes, which must cut the numerators' runs.
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
		name       string
		eta, wRows int
		segments   []segment
	}{
		{"train_cnn forward", 9, 2, []segment{{kind: "dense", cols: 588}}},
		{"train_mlp gradient", 8, 8, []segment{{kind: "dense", cols: 196}}},
		{"conv gradient sample", 196, 2, []segment{{kind: "dense", cols: 9}}},
		{"two key slices", 9, 2, alternating(40, 1, 3, 9, 2, 5, 1, 8)},
		{"sparse supports", 12, 3, []segment{{kind: "sparse", cols: 11}}},
		{"empty supports", 9, 2, []segment{{kind: "empty", cols: 5}, {kind: "dense", cols: 3}, {kind: "empty", cols: 9}, {kind: "dense", cols: 1}}},
		{"one key slice, two supports", 10, 3, []segment{{kind: "left", cols: 3}, {kind: "right", cols: 1}, {kind: "left", cols: 1}, {kind: "right", cols: 9}, {kind: "left", cols: 2}}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			mpk, msk := ks.setup(t, shape.eta)
			edges := slices.ContainsFunc(shape.segments, func(s segment) bool { return s.kind == "left" || s.kind == "right" })
			w := make([][]int64, shape.wRows)
			for i := range w {
				w[i] = make([]int64, shape.eta)
				for c := range w[i] {
					if !edges || (c != 0 && c != shape.eta-1) {
						w[i][c] = rng.Int63n(2001) - 1000
					}
				}
			}
			// keysOn derives the keys of every row of w restricted to
			// support. The two dense slices have the same values: the
			// evaluator tells slices apart by identity, so runs end where
			// the slice changes.
			keysOn := func(support []int) []*feip.FunctionKey {
				keys := make([]*feip.FunctionKey, len(w))
				for i, y := range w {
					vals := make([]int64, len(support))
					for c, at := range support {
						vals[c] = y[at]
					}
					fk, err := feip.KeyDeriveSparse(params, msk, support, vals)
					if err != nil {
						t.Fatal(err)
					}
					keys[i] = fk
				}
				return keys
			}
			dense := identity(shape.eta)
			denseKeys := [2][]*feip.FunctionKey{keysOn(dense), keysOn(dense)}
			emptyKeys := keysOn(nil)
			left, right := dense[:shape.eta-1], dense[1:]
			edgeKeys := keysOn(left)
			var cols []column
			var xs [][]int64
			for _, seg := range shape.segments {
				for range seg.cols {
					var support []int
					keys := emptyKeys
					switch seg.kind {
					case "dense":
						support, keys = dense, denseKeys[seg.slice]
					case "sparse":
						for c := range shape.eta {
							if rng.Intn(2) == 0 {
								support = append(support, c)
							}
						}
						keys = keysOn(support)
					case "empty":
						support = []int{}
					case "left":
						support, keys = left, edgeKeys
					case "right":
						support, keys = right, edgeKeys
					}
					x := make([]int64, shape.eta)
					vals := make([]int64, len(support))
					for c, at := range support {
						vals[c] = rng.Int63n(201) - 100
						x[at] = vals[c]
					}
					ct, err := feip.EncryptSparse(mpk, support, vals, rng)
					if err != nil {
						t.Fatal(err)
					}
					cols = append(cols, column{ct0: ct.Ct0, coords: ct.Ct, support: support, keys: keys})
					xs = append(xs, x)
				}
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

// TestEvalColumnsPooledScratchAcrossShapes runs three products on one engine
// and one worker, so each finds the pooled scratch of the one before: 32
// rows of W with weights up to 17 bits, then 2 rows of small weights, then
// 32 rows of small weights again. Each product lays its masks, tables and
// slots out afresh over what the last one left, taller and wider or shorter
// and narrower, and at 256 bits its runs of columns go through the lanes
// where the CPU has them; every cell must still be g^{⟨w_i, x_j⟩}, which it
// cannot be if a stale slot or mask is read.
func TestEvalColumnsPooledScratchAcrossShapes(t *testing.T) {
	params, err := group.Embedded(group.PaperBits)
	if err != nil {
		t.Fatal(err)
	}
	ks := &feipOnly{params: params, mpks: map[int]*feip.MasterPublicKey{}, msks: map[int]*feip.MasterSecretKey{}}
	eng, err := NewEngine(ks, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const eta = 20
	mpk, msk := ks.setup(t, eta)
	rng := rand.New(rand.NewSource(17))
	support := identity(eta)
	cols := make([]column, 10)
	xs := make([][]int64, len(cols))
	for j := range cols {
		xs[j] = make([]int64, eta)
		for c := range xs[j] {
			xs[j][c] = rng.Int63n(201) - 100
		}
		ct, err := feip.Encrypt(mpk, xs[j], rng)
		if err != nil {
			t.Fatal(err)
		}
		cols[j] = column{ct0: ct.Ct0, coords: ct.Ct, support: support}
	}
	mc := params.Mont()
	k := mc.Limbs()
	want := mc.Elem()
	for product, shape := range []struct {
		rows int
		mag  int64
	}{{32, 65535}, {2, 50}, {32, 50}} {
		w := make([][]int64, shape.rows)
		keys := make([]*feip.FunctionKey, shape.rows)
		for i := range w {
			w[i] = make([]int64, eta)
			for c := range w[i] {
				w[i][c] = rng.Int63n(2*shape.mag+1) - shape.mag
			}
			if keys[i], err = feip.KeyDerive(params, msk, w[i]); err != nil {
				t.Fatal(err)
			}
		}
		for j := range cols {
			cols[j].keys = keys
		}
		err := eng.evalColumns(cols, w, ComputeOptions{Parallelism: 1}, func(j int, gammas []uint64) error {
			for i, y := range w {
				var dot int64
				for c, v := range y {
					dot += v * xs[j][c]
				}
				if params.PowGInt64Mont(want, dot); !slices.Equal(gammas[i*k:(i+1)*k], want) {
					return fmt.Errorf("product %d (%d rows), column %d, row %d: not g^%d", product, shape.rows, j, i, dot)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
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
