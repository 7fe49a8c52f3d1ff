package securemat

import (
	"cmp"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/par"
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
			dense := group.Identity(shape.eta)
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
			DeselectLanes(t)
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
	support := group.Identity(eta)
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
		cols[j] = column{ct0: ct.Ct0, coords: ct.Ct, support: group.Identity(eta), keys: keys}
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

// chunkRuns is how par.ForEachChunk cuts n columns at per a chunk.
func chunkRuns(n, per int) []int {
	var runs []int
	for ; n > 0; n -= per {
		runs = append(runs, min(per, n))
	}
	return runs
}

// TestEvalColumnsChunkGeometry pins how evalColumns cuts a product into
// chunks, at serve_dense's shape (784 coordinates against the 32 rows of
// W's first layer, 256 bits) for coalesced widths 1, 2, 3, 8, 9 and 17, and
// at a sparse top-k product's (512 labels, every column on a support and
// keys of its own). With the lanes, a dense product's columns share one
// support and one key slice, so it is cut into whole runs of eight: up to
// eight columns are one chunk, 17 are 8 + 8 + 1. With the lanes deselected,
// and for sparse columns either way, the chunks are chunkSize's. Every
// product must give the same limbs both ways, and g^{⟨w_i, x_j⟩} (the top-k
// product its plaintext logits). Where the CPU has no lane kernel both
// halves run, and pin, the scalar geometry.
func TestEvalColumnsChunkGeometry(t *testing.T) {
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
	rng := rand.New(rand.NewSource(46))
	weights := func(rows, eta int, mag int64) [][]int64 {
		w := make([][]int64, rows)
		for i := range w {
			w[i] = make([]int64, eta)
			for c := range w[i] {
				w[i][c] = rng.Int63n(2*mag+1) - mag
			}
		}
		return w
	}
	// geometry is the chunk runs evalColumns cuts cols into.
	geometry := func(cols []column, wRows int) []int {
		workers := min(par.Workers(0), wRows*len(cols))
		return chunkRuns(len(cols), columnsPerChunk(cols, wRows, workers, mc.Lanes()))
	}
	// scalarGeometry is chunkSize's, whole columns of at least 16 cells.
	scalarGeometry := func(cols, wRows int) []int {
		total := wRows * cols
		per := (chunkSize(total, min(par.Workers(0), total)) + wRows - 1) / wRows
		return chunkRuns(cols, min(per, cols))
	}
	eval := func(t *testing.T, cols []column, w [][]int64) [][]uint64 {
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
	sameLimbs := func(t *testing.T, lanes, scalar [][]uint64) {
		t.Helper()
		for j := range lanes {
			if !slices.Equal(lanes[j], scalar[j]) {
				t.Fatalf("column %d: the lanes give %x, the scalar body %x", j, lanes[j], scalar[j])
			}
		}
	}

	t.Run("serve_dense", func(t *testing.T) {
		const eta, wRows = 784, 32
		mpk, msk := ks.setup(t, eta)
		w := weights(wRows, eta, 400)
		keys := make([]*feip.FunctionKey, wRows)
		for i := range w {
			if keys[i], err = feip.KeyDerive(params, msk, w[i]); err != nil {
				t.Fatal(err)
			}
		}
		support := group.Identity(eta)
		pool := make([]column, 17)
		xs := make([][]int64, len(pool))
		for j := range pool {
			xs[j] = make([]int64, eta)
			for c := range xs[j] {
				xs[j][c] = rng.Int63n(201) - 100
			}
			ct, err := feip.Encrypt(mpk, xs[j], rng)
			if err != nil {
				t.Fatal(err)
			}
			pool[j] = column{ct0: ct.Ct0, coords: ct.Ct, support: support, keys: keys}
		}
		for _, width := range []struct {
			cols  int
			lanes []int
		}{{1, []int{1}}, {2, []int{2}}, {3, []int{3}}, {8, []int{8}}, {9, []int{8, 1}}, {17, []int{8, 8, 1}}} {
			t.Run(fmt.Sprintf("cols=%d", width.cols), func(t *testing.T) {
				cols := pool[:width.cols]
				wantScalar := scalarGeometry(width.cols, wRows)
				wantSelected := wantScalar
				if mc.Lanes() {
					wantSelected = width.lanes
				}
				if got := geometry(cols, wRows); !slices.Equal(got, wantSelected) {
					t.Fatalf("as selected: chunks %v, want %v", got, wantSelected)
				}
				lanes := eval(t, cols, w)
				DeselectLanes(t)
				if got := geometry(cols, wRows); !slices.Equal(got, wantScalar) {
					t.Fatalf("lanes deselected: chunks %v, want %v", got, wantScalar)
				}
				sameLimbs(t, lanes, eval(t, cols, w))
				want := mc.Elem()
				for j := range cols {
					for i, y := range w {
						var dot int64
						for c, v := range y {
							dot += v * xs[j][c]
						}
						if params.PowGInt64Mont(want, dot); !slices.Equal(lanes[j][i*k:(i+1)*k], want) {
							t.Fatalf("column %d, row %d: not g^%d", j, i, dot)
						}
					}
				}
			})
		}
	})

	t.Run("sparse top-k", func(t *testing.T) {
		const eta, labels, carried, columns, top = 1000, 512, 20, 5, 10
		mpk, msk := ks.setup(t, eta)
		w := weights(labels, eta, 100)
		enc := &SparseEncryptedMatrix{Rows: eta, Cols: columns}
		keys := make([][]*feip.FunctionKey, columns)
		logits := make([][]int64, columns)
		for j := range columns {
			support := rng.Perm(eta)[:carried]
			slices.Sort(support)
			vals := make([]int64, carried)
			for c := range vals {
				vals[c] = rng.Int63n(201) - 100
			}
			ct, err := feip.EncryptSparse(mpk, support, vals, rng)
			if err != nil {
				t.Fatal(err)
			}
			enc.ColCts = append(enc.ColCts, ct)
			keys[j] = make([]*feip.FunctionKey, labels)
			logits[j] = make([]int64, labels)
			for i, y := range w {
				on := make([]int64, carried)
				for c, at := range support {
					on[c] = y[at]
					logits[j][i] += y[at] * vals[c]
				}
				if keys[j][i], err = feip.KeyDeriveSparse(params, msk, support, on); err != nil {
					t.Fatal(err)
				}
			}
		}
		cols, err := sparseColumns(enc, keys, w)
		if err != nil {
			t.Fatal(err)
		}
		solver, err := dlog.NewSolver(params, carried*100*100)
		if err != nil {
			t.Fatal(err)
		}
		eng := eng.WithSolver(solver)
		topK := func() [][]dlog.TopKHit {
			hits, err := eng.SecureDotTopK(enc, keys, w, top, ComputeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return hits
		}
		wantChunks := scalarGeometry(columns, labels)
		if got := geometry(cols, labels); !slices.Equal(got, wantChunks) {
			t.Fatalf("as selected: chunks %v, want chunkSize's %v", got, wantChunks)
		}
		lanes, lanesHits := eval(t, cols, w), topK()
		DeselectLanes(t)
		if got := geometry(cols, labels); !slices.Equal(got, wantChunks) {
			t.Fatalf("lanes deselected: chunks %v, want chunkSize's %v", got, wantChunks)
		}
		sameLimbs(t, lanes, eval(t, cols, w))
		scalarHits := topK()
		for j, hits := range lanesHits {
			if !slices.Equal(hits, scalarHits[j]) {
				t.Fatalf("column %d: top-%d %v on the lanes, %v on the scalar body", j, top, hits, scalarHits[j])
			}
			sorted := slices.Clone(logits[j])
			slices.SortFunc(sorted, func(a, b int64) int { return cmp.Compare(b, a) })
			for r, h := range hits {
				if h.Value != logits[j][h.Index] || h.Value != sorted[r] {
					t.Fatalf("column %d: hit %d is (%d, %d), want the %d-th largest logit %d", j, r, h.Index, h.Value, r+1, sorted[r])
				}
			}
		}
	})
}
