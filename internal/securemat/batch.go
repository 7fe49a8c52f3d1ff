// Batched decryption pipeline.
//
// Every secure computation ends with one group division and one bounded
// discrete log per output cell. Workers (par.ForEachChunk) drain contiguous
// chunks of cells: all (numerator, denominator) pairs of a chunk as
// Montgomery-domain limb elements, the chunk's denominators inverted together
// with a single modular inversion (Montgomery's trick,
// group.MontCtx.BatchInvMont), then the dlog lookups (solveCells, never
// leaving the domain). Worker-local scratch persists across every chunk a
// worker drains, so the steady state allocates nothing per cell.
//
// There is one FEIP evaluator, evalColumns, behind SecureDot, SecureDotRows,
// SecureDotSparse and SecureDotTopK: it works on coordinate-form columns,
// and a dense ciphertext is the column whose support is the identity.

package securemat

import (
	"fmt"
	"math/big"
	"sync/atomic"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/par"
)

// column is one FEIP ciphertext as the evaluator sees it: ct_0, the carried
// coordinates, the coordinate of the plaintext vector each one encrypts, and
// the function keys — one per row of the weight matrix — it decrypts under.
//
// A dense ciphertext carries every coordinate, so its support is the identity
// [0, η): the entry points pass that slice explicitly (one, shared by all
// their columns) and nothing below asks which kind of ciphertext it serves.
// An empty support is an all-zero vector whose every product is 0 — which is
// why "no support" can never stand for "every coordinate".
type column struct {
	ct0     *big.Int
	coords  []*big.Int
	support []int
	keys    []*feip.FunctionKey
}

// identity returns the support [0, n).
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// denseColumns views one orientation of an EncryptedMatrix as columns over
// the shared identity support; every column decrypts under the same keys. A
// nil ciphertext stays a zero column for checkColumns to refuse.
func denseColumns(cts []*feip.Ciphertext, support []int, keys []*feip.FunctionKey) []column {
	cols := make([]column, len(cts))
	for j, ct := range cts {
		if ct != nil {
			cols[j] = column{ct0: ct.Ct0, coords: ct.Ct, support: support, keys: keys}
		}
	}
	return cols
}

// checkWeights refuses a weight matrix that is ragged or whose rows are not
// eta wide, the dimension of the ciphertexts it multiplies.
func checkWeights(w [][]int64, eta int) error {
	rows, cols, err := Shape(w)
	if err != nil {
		return err
	}
	if cols != eta {
		return fmt.Errorf("%w: weights are %dx%d but the encrypted vectors have dimension %d", ErrShape, rows, cols, eta)
	}
	return nil
}

// checkColumns is the one validation in front of the evaluator, for every
// entry point: exactly the declared number of ciphertexts, none nil, as many
// coordinates as support entries, a support strictly increasing inside
// [0, η), and one non-empty key per row of w for every column. Callers
// assemble views by hand (core's conv path, the coalescing dispatcher, the
// wire decoders), and the evaluator indexes w by support on worker
// goroutines, so a view that disagrees with itself must fail here, before
// any arithmetic, not as a panic or a short result. w has passed
// checkWeights.
func (e *Engine) checkColumns(cols []column, declared int, w [][]int64) error {
	if len(cols) != declared {
		return fmt.Errorf("%w: %d ciphertexts for a matrix declaring %d", ErrShape, len(cols), declared)
	}
	eta := len(w[0])
	for j := range cols {
		c := &cols[j]
		if c.ct0 == nil {
			return fmt.Errorf("%w: nil ciphertext %d", ErrShape, j)
		}
		if err := checkSupport(j, c.support, len(c.coords), eta); err != nil {
			return err
		}
		if len(c.keys) != len(w) {
			return fmt.Errorf("%w: %d keys for ciphertext %d, want %d", ErrShape, len(c.keys), j, len(w))
		}
		for i, fk := range c.keys {
			if fk == nil || fk.K == nil {
				return fmt.Errorf("%w: empty function key %d for ciphertext %d", ErrShape, i, j)
			}
		}
	}
	if e.solver == nil {
		return ErrNoSolver
	}
	return nil
}

// checkSupport refuses ciphertext j unless it carries one coordinate per
// support entry and the support is strictly increasing inside [0, η) — what
// every walk that indexes a weight row by support relies on, the evaluator's
// and SparseDotKeys' alike.
func checkSupport(j int, support []int, coords, eta int) error {
	if coords != len(support) {
		return fmt.Errorf("%w: ciphertext %d carries %d coordinates on a support of %d", ErrShape, j, coords, len(support))
	}
	prev := -1
	for _, i := range support {
		if i <= prev || i >= eta {
			return fmt.Errorf("%w: ciphertext %d: support not strictly increasing in [0,%d)", ErrShape, j, eta)
		}
		prev = i
	}
	return nil
}

// sameKeys reports whether two key slices are the same slice, not merely
// equal: the evaluator recodes once per distinct slice.
func sameKeys(a, b []*feip.FunctionKey) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// evalColumns is the FEIP evaluator. For every column j it computes the slab
// gammas[i·k : (i+1)·k] = g^{⟨w_i, x_j⟩} (Montgomery form, k limbs per
// element) for each row i of w and hands it to sink, which may run on any
// worker; cols and w have passed checkColumns. A product with no cells — no
// columns — is empty, and sink is never called.
//
// Cell (i, j) is Π_t coords_j[t]^{w_i[support_j[t]]} / ct0_j^{keys_j[i]}.
// Both halves are shared down the column. The numerators of all its cells are
// one group.MultiExpInt64RowsMontParts call: each carried coordinate is
// converted and tabulated once and multiplied into every row of w that
// weights it. Denominators share their base across a column and their
// exponent across every column that decrypts under the same key slice: each
// distinct slice is recoded into signed windows once per worker, each column
// builds one ephemeral table for its ct_0 inside the chunk that evaluates it,
// and every denominator is then a handful of limb multiplications whose
// negative-digit half rides along to the chunk's one inversion.
//
// A chunk is a run of whole columns sized by chunkSize, so one batch
// inversion covers at least 16 cells even when the columns are short (a
// two-filter convolution has two-cell columns). A product with too few
// columns to give every worker a few is cut finer, into tiles (evalTiled).
func (e *Engine) evalColumns(cols []column, w [][]int64, opts ComputeOptions, sink func(j int, gammas []uint64) error) error {
	if len(cols) == 0 {
		return nil
	}
	mpk, err := e.FEIPPublic(len(w[0]))
	if err != nil {
		return err
	}
	ev := &evaluator{p: mpk.Params, mc: mpk.Params.Mont(), cols: cols, w: w, sink: sink}
	total := len(w) * len(cols)
	workers := min(e.workers(opts.Parallelism), total)
	carried := 0
	for j := range cols {
		carried += len(cols[j].coords)
	}
	if parts := tilesPerColumn(len(cols), carried, workers); parts > 1 {
		return ev.evalTiled(parts, workers)
	}
	perChunk := (chunkSize(total, workers) + len(w) - 1) / len(w)
	newScratch := func() *evalScratch { return &evalScratch{cells: ev.newCells(perChunk)} }
	return par.ForEachChunk(len(cols), perChunk, workers, newScratch, func(start, end int, sc *evalScratch) error {
		for j := start; j < end; j++ {
			c := ev.column(sc.cells, j-start)
			sc.denominators(ev, j, c)
			sc.mexp = ev.p.MultiExpInt64RowsMontParts(c.nums, c.numNegs, cols[j].coords, cols[j].support, w, sc.mexp)
		}
		return ev.finish(sc, sc.cells, start, end)
	})
}

// evaluator is what one evalColumns call shares between its workers, all of
// it read-only.
type evaluator struct {
	p    *group.Params
	mc   *group.MontCtx
	cols []column
	w    [][]int64
	sink func(j int, gammas []uint64) error
}

// cellSlabs are the four values a run of FEIP cells is finished from, one
// Montgomery-form element per cell each: ts holds the denominator's positive
// half and ends as the cell's value, denNegs the denominator's negative half,
// nums and numNegs the numerator's two halves.
type cellSlabs struct{ ts, denNegs, nums, numNegs []uint64 }

// newCells allocates the slabs of n whole columns.
func (ev *evaluator) newCells(n int) cellSlabs {
	limbs := n * len(ev.w) * ev.mc.Limbs()
	buf := make([]uint64, 4*limbs)
	return cellSlabs{buf[:limbs], buf[limbs : 2*limbs], buf[2*limbs : 3*limbs], buf[3*limbs:]}
}

// column narrows s to its c-th column.
func (ev *evaluator) column(s cellSlabs, c int) cellSlabs {
	n := len(ev.w) * ev.mc.Limbs()
	lo, hi := c*n, (c+1)*n
	return cellSlabs{s.ts[lo:hi], s.denNegs[lo:hi], s.nums[lo:hi], s.numNegs[lo:hi]}
}

// evalScratch is one worker's state: the recoded key slice, the table of the
// ciphertext in hand, kernel scratch and, when columns are whole, a chunk's cells.
type evalScratch struct {
	recoded []*feip.FunctionKey // the key slice digits holds
	digits  [][]int16
	tab     *group.EphemeralTable
	mexp    []uint64 // multi-exponentiation scratch
	inv     []uint64 // batch-inversion prefix scratch
	cells   cellSlabs
}

// denominators fills c.ts and c.denNegs with the two halves of ct0_j^{key}
// for every key of column j.
func (sc *evalScratch) denominators(ev *evaluator, j int, c cellSlabs) {
	col := &ev.cols[j]
	if !sameKeys(col.keys, sc.recoded) {
		if sc.digits == nil {
			sc.digits = make([][]int16, len(ev.w)) // one key per row of w
		}
		for i, fk := range col.keys {
			sc.digits[i] = ev.p.RecodeSigned(fk.K, sc.digits[i])
		}
		sc.recoded = col.keys
	}
	k := ev.mc.Limbs()
	sc.tab = ev.p.NewEphemeralTable(col.ct0, sc.tab)
	for i, d := range sc.digits {
		sc.tab.PowRecoded(c.ts[i*k:(i+1)*k], c.denNegs[i*k:(i+1)*k], d)
	}
}

// finish turns the filled cells s of columns [start, end) into their values
// — everything below the bar into ts, one inversion for the run, the rest
// multiplied back — and hands each column to the sink.
func (ev *evaluator) finish(sc *evalScratch, s cellSlabs, start, end int) error {
	perCol := len(ev.w) * ev.mc.Limbs()
	n := (end - start) * perCol
	ts := s.ts[:n]
	ev.mulEach(ts, s.numNegs[:n])
	var err error
	if sc.inv, err = ev.mc.BatchInvMont(ts, sc.inv); err != nil {
		return fmt.Errorf("securemat: batch inversion for columns %d–%d: %w", start, end-1, err)
	}
	ev.mulEach(ts, s.nums[:n])
	ev.mulEach(ts, s.denNegs[:n])
	for j := start; j < end; j++ {
		if err := ev.sink(j, ts[(j-start)*perCol:(j-start+1)*perCol]); err != nil {
			return err
		}
	}
	return nil
}

// mulEach multiplies every element of dst by the matching element of by.
func (ev *evaluator) mulEach(dst, by []uint64) {
	k := ev.mc.Limbs()
	for c := 0; c < len(dst); c += k {
		ev.mc.MulMont(dst[c:c+k], dst[c:c+k], by[c:c+k])
	}
}

// minTileCoords is the fewest carried coordinates worth a tile of their own.
// A tile's overhead is the fold of its rows' digit slots into one partial
// product (the last loop of group.multiExpRows, ≈ 18 multiplications per row
// and half) against ≈ 2 multiplications per row and coordinate of work, so it
// is ≈ 18/coordinates whatever the number of rows: a seventh at 128.
const minTileCoords = 128

// tilesPerColumn is the rule for cutting columns into tiles, a function of
// the product's shape and the worker count alone: with fewer columns than
// twice the workers, a column is cut into as many ranges of its carried
// coordinates as bring the product to two tiles per worker, while a range
// keeps minTileCoords coordinates (judged on the mean column). 1 means a
// column is the unit of work.
//
// BenchmarkSecureDotStage and BenchmarkBatchedDecrypt are the evidence (256
// bits, the two cores of this box, ms per product, best of six rounds
// alternating this tree with its parent, whose columns stay whole):
//
//	η × rows × columns   par=1   par=2 whole   par=2 tiled
//	784 × 32 × 1         3.19    3.08          2.10  (0.66×; 2.49 → 1.66 on a quiet box)
//	784 × 32 × 3         9.63    5.74          5.56  (0.58×)
//	784 × 32 × 4         12.7    7.45          not tiled: 4 ≥ 2 × 2
//	196 × 8 × 8          2.52    1.48          not tiled; 8 × 8 × 196: 19.5 → 10.2
//
// Rows where nothing changed differ by ±7 % between the two binaries — the
// noise of a shared box, which a two-core reading feels most.
func tilesPerColumn(cols, carried, workers int) int {
	if workers < 2 || cols >= 2*workers {
		return 1
	}
	return max(1, min((2*workers+cols-1)/cols, carried/cols/minTileCoords))
}

// evalTiled evaluates a product of few columns tile by tile. Tile p of
// column j is every row of w over the p-th of parts equal ranges of the
// column's carried coordinates; the first tile of a column also computes its
// denominators. Whichever tile of a column is done last folds the partial
// numerators — one multiplication per row, half and extra tile — and finishes
// the column: no table is built twice, the cells are the ones evalColumns
// would have computed, and a column's tiles are consecutive chunks, so the
// lowest failing column is still the one reported.
func (ev *evaluator) evalTiled(parts, workers int) error {
	cells := ev.newCells(len(ev.cols))
	perCol := len(ev.w) * ev.mc.Limbs()
	// partial[t·2·perCol:] holds the two halves of tile t = j·parts + p, p ≥ 1.
	partial := make([]uint64, len(ev.cols)*parts*2*perCol)
	done := make([]atomic.Int32, len(ev.cols)) // tiles finished, per column
	newScratch := func() *evalScratch { return &evalScratch{} }
	return par.ForEachChunk(len(ev.cols)*parts, 1, workers, newScratch, func(t, _ int, sc *evalScratch) error {
		j, p := t/parts, t%parts
		col, c := &ev.cols[j], ev.column(cells, j)
		a, b := p*len(col.coords)/parts, (p+1)*len(col.coords)/parts
		pos, neg := c.nums, c.numNegs
		if p == 0 {
			sc.denominators(ev, j, c)
		} else {
			pos, neg = partial[t*2*perCol:][:perCol], partial[(t*2+1)*perCol:][:perCol]
		}
		sc.mexp = ev.p.MultiExpInt64RowsMontParts(pos, neg, col.coords[a:b], col.support[a:b], ev.w, sc.mexp)
		if int(done[j].Add(1)) < parts {
			return nil
		}
		for x := j*parts + 1; x < (j+1)*parts; x++ {
			ev.mulEach(c.nums, partial[x*2*perCol:][:perCol])
			ev.mulEach(c.numNegs, partial[(x*2+1)*perCol:][:perCol])
		}
		return ev.finish(sc, c, j, j+1)
	})
}

// solveColumns checks cols, evaluates them and solves every cell's discrete
// log: z[i][j] = ⟨w_i, x_j⟩. It is the sink SecureDot, SecureDotRows and
// SecureDotSparse share.
func (e *Engine) solveColumns(cols []column, declared int, w [][]int64, opts ComputeOptions) ([][]int64, error) {
	if err := e.checkColumns(cols, declared, w); err != nil {
		return nil, err
	}
	z := newMatrix(len(w), len(cols))
	err := e.evalColumns(cols, w, opts, func(j int, gammas []uint64) error {
		limbs := len(gammas) / len(w)
		return e.shared.dlog.solveCells(e.solver, gammas, limbs, z, j, len(cols))
	})
	if err != nil {
		return nil, err
	}
	return z, nil
}

// dlogCounters is the engine's account of the discrete-log step that ends
// every secure computation: how many look-ups ran, how many giant-step
// rounds they took, and how many values fell outside the solver bound — a
// fixed-point overflow that would otherwise surface only as an error string.
type dlogCounters struct {
	lookups    atomic.Uint64
	rounds     atomic.Uint64
	outOfBound atomic.Uint64
}

// DlogStats is a point-in-time snapshot of the engine's discrete-log
// counters. Rounds/Lookups is the mean scan length: near 0 while results sit
// well inside the bound, towards 2·bound/m as they approach it.
type DlogStats struct {
	Lookups    uint64 // look-ups run by the dense and sparse full-solve evaluators
	Rounds     uint64 // giant-step rounds those look-ups took
	OutOfBound uint64 // cells, and top-k scans, that failed with dlog.ErrNotFound
}

// DlogStats snapshots the session's discrete-log counters.
func (e *Engine) DlogStats() DlogStats {
	c := &e.shared.dlog
	return DlogStats{Lookups: c.lookups.Load(), Rounds: c.rounds.Load(), OutOfBound: c.outOfBound.Load()}
}

// solveCells finishes a run of cells: element t of slab (Montgomery form, k
// limbs each) is output cell first + t·stride of z in row-major order, so an
// element-wise chunk passes its first cell and stride 1, and a FEIP column
// its column index and stride cols. It stops at the first value outside the solver bound, names
// that cell, and counts it; look-ups and rounds are added once per run, so
// the per-cell loop touches no shared state.
func (c *dlogCounters) solveCells(solver *dlog.Solver, slab []uint64, k int, z [][]int64, first, stride int) error {
	cols := len(z[0])
	n := len(slab) / k
	rounds := 0
	for t := 0; t < n; t++ {
		idx := first + t*stride
		v, r, err := solver.LookupMontRounds(slab[t*k : (t+1)*k])
		rounds += r
		if err != nil {
			// The solver's only failure is dlog.ErrNotFound.
			c.lookups.Add(uint64(t + 1))
			c.rounds.Add(uint64(rounds))
			c.outOfBound.Add(1)
			return fmt.Errorf("securemat: cell (%d,%d): %w", idx/cols, idx%cols, err)
		}
		z[idx/cols][idx%cols] = v
	}
	c.lookups.Add(uint64(n))
	c.rounds.Add(uint64(rounds))
	return nil
}

// chunkSize picks the batched-decryption chunk length: big enough to
// amortize the one inversion per chunk (the trick turns n inversions into
// one inversion + 3(n−1) muls), small enough to keep all workers busy on
// ragged workloads.
func chunkSize(total, workers int) int {
	chunk := (total + 4*workers - 1) / (4 * workers)
	return min(max(chunk, 16), 256)
}

// decryptElemBatched fills z[i][j] = x[i][j] Δ y[i][j] for the element-wise
// FEBO decryptions, entirely in the Montgomery domain: per-cell numerator
// and denominator come from febo.DecryptPartsMont as raw limb elements
// (small-multiplier ladders for ×, the windowed ExpMont ladder for ÷), each
// chunk's denominators collapse into one batched inversion, and the
// quotients feed the dlog solver without a big.Int round-trip — the same
// pipeline shape as evalColumns.
func decryptElemBatched(pk *febo.PublicKey, solver *dlog.Solver, counts *dlogCounters, enc *EncryptedMatrix, keys [][]*febo.FunctionKey, op febo.Op, y [][]int64, workers int, z [][]int64) error {
	rows, cols := enc.Rows, enc.Cols
	total := rows * cols
	if total == 0 {
		return nil
	}
	workers = min(workers, total)
	mc := pk.Params.Mont()
	k := mc.Limbs()
	chunk := chunkSize(total, workers)
	type elemScratch struct {
		nums []uint64 // per-cell numerators
		dens []uint64 // per-cell denominators, inverted chunk-wide
		inv  []uint64 // batch-inversion prefix scratch
		fe   febo.DecryptScratch
	}
	newScratch := func() *elemScratch {
		return &elemScratch{
			nums: make([]uint64, chunk*k),
			dens: make([]uint64, chunk*k),
		}
	}
	doChunk := func(start, end int, sc *elemScratch) error {
		n := end - start
		for t, idx := 0, start; idx < end; t, idx = t+1, idx+1 {
			i, j := idx/cols, idx%cols
			err := febo.DecryptPartsMont(pk, keys[i][j], enc.Elems[i][j], op, y[i][j],
				sc.nums[t*k:(t+1)*k], sc.dens[t*k:(t+1)*k], &sc.fe)
			if err != nil {
				return fmt.Errorf("securemat: cell (%d,%d): %w", i, j, err)
			}
		}
		var err error
		if sc.inv, err = mc.BatchInvMont(sc.dens[:n*k], sc.inv); err != nil {
			return fmt.Errorf("securemat: batch inversion: %w", err)
		}
		for c := 0; c < n*k; c += k {
			gamma := sc.dens[c : c+k]
			mc.MulMont(gamma, gamma, sc.nums[c:c+k])
		}
		return counts.solveCells(solver, sc.dens[:n*k], k, z, start, 1)
	}
	return par.ForEachChunk(total, chunk, workers, newScratch, doChunk)
}
