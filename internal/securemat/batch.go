// Batched decryption pipeline.
//
// Every secure computation ends with one group division and one bounded
// discrete log per output cell. Workers (par.ForEachChunk) drain contiguous
// chunks of cells: all (numerator, denominator) pairs of a chunk as
// Montgomery-domain limb elements, the chunk's denominators inverted together
// with a single modular inversion (Montgomery's trick,
// group.MontCtx.BatchInvMont), then the dlog lookups (solveCells, never
// leaving the domain). Worker-local scratch persists across every chunk a
// worker drains, and across products too (the session's evalPool and
// elemPool, lent through scratchLoan), so the steady state allocates nothing
// per cell.
//
// There is one FEIP evaluator, evalColumns, behind SecureDot, SecureDotRows,
// SecureDotSparse and SecureDotTopK: it works on coordinate-form columns,
// and a dense ciphertext is the column whose support is the identity.

package securemat

import (
	"fmt"
	"math/big"
	"slices"
	"sync"
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

// sameSupport reports whether two supports are the same slice, or both
// empty: the evaluator hands the numerators of columns on one support to one
// call. Equal supports in different slices, as sparse ciphertexts carry,
// stay apart; telling them together would cost a comparison per coordinate.
func sameSupport(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// numeratorCols is the most columns one numerator call takes: the eight
// lanes of group's lane kernel, which is where a call of several columns
// pays.
const numeratorCols = 8

// evalScratch is one evalColumns worker's memory, recycled across products
// through the session's evalPool: every slab is overwritten before it is
// read, and recoded is nil whenever the scratch is not in use. mexp holds
// the multi-exponentiation's tables and slots, the lane kernel's too (320
// bytes an element, about (weight bits + 1)·2·rows of them), so a product
// of any shape allocates nothing per numerator call once it has grown.
type evalScratch struct {
	recoded []*feip.FunctionKey // the key slice dens holds
	keys    []*big.Int          // its scalars, the recoding's input
	bases   []*big.Int          // one run's ct_0s, raised to keys
	dens    *group.EphemeralExps
	nums    []uint64     // per-cell numerator positive halves
	denNegs []uint64     // per-cell denominator negative halves
	ts      []uint64     // per-cell numNeg·denPos, then the cell value
	coords  [][]*big.Int // one numerator call's columns of coordinates
	numNegs []uint64     // their numerator negative halves
	inv     []uint64     // batch-inversion prefix scratch
	mexp    []uint64     // multi-exponentiation scratch, lane slots included
}

// evalColumns is the FEIP evaluator. For every column j it computes the slab
// gammas[i·k : (i+1)·k] = g^{⟨w_i, x_j⟩} (Montgomery form, k limbs per
// element) for each row i of w and hands it to sink, which may run on any
// worker; cols and w have passed checkColumns. A product with no cells — no
// columns — is empty, and sink is never called.
//
// Cell (i, j) is Π_t coords_j[t]^{w_i[support_j[t]]} / ct0_j^{keys_j[i]}.
// Both halves are shared down the column. Numerators share their exponents
// across every column on the same support: inside each run of columns under
// one key slice, each run of up to numeratorCols of them on one support
// (the same slice, as the dense entry points pass it, or an empty one) is
// one group.MultiExpInt64RowsMontParts call, which converts and tabulates
// each carried coordinate once, multiplies it into every row of w that
// weights it, and takes the columns eight at a time where group has its
// lane kernel. Denominators share their base across a column and their
// exponent across every column that decrypts under the same key slice: each
// distinct slice is recoded once per worker (group.Params.RecodeSigned), the
// ct_0s of each run of a chunk's columns that share a slice are raised to
// all of its keys by one group.EphemeralExps.PowRecoded call, again eight at
// a time on the lanes, and the negative-digit halves of every numerator and
// denominator ride along to the chunk's one inversion.
//
// A chunk is a run of whole columns sized by chunkSize, so one batch
// inversion covers at least 16 cells even when the columns are short (a
// two-filter convolution has two-cell columns).
func (e *Engine) evalColumns(cols []column, w [][]int64, opts ComputeOptions, sink func(j int, gammas []uint64) error) error {
	if len(cols) == 0 {
		return nil
	}
	wRows, eta := len(w), len(w[0])
	mpk, err := e.FEIPPublic(eta)
	if err != nil {
		return err
	}
	p := mpk.Params
	mc := p.Mont()
	k := mc.Limbs()
	total := wRows * len(cols)
	workers := min(par.Workers(opts.Parallelism), total)
	perChunk := (chunkSize(total, workers) + wRows - 1) / wRows
	// A worker's recoded key set, its squaring chains and its slabs last
	// from product to product.
	loan := scratchLoan[evalScratch]{pool: &e.shared.evalPool}
	defer loan.giveBack(func(sc *evalScratch) {
		// A key slice of a later product may sit at the address of the
		// one recoded last: forget it.
		sc.recoded = nil
	})
	newScratch := func() *evalScratch {
		sc := loan.get()
		n := perChunk * wRows * k
		sc.keys = slices.Grow(sc.keys[:0], wRows)[:wRows]
		sc.nums = slices.Grow(sc.nums[:0], n)[:n]
		sc.denNegs = slices.Grow(sc.denNegs[:0], n)[:n]
		sc.ts = slices.Grow(sc.ts[:0], n)[:n]
		m := min(perChunk, numeratorCols) * wRows * k
		sc.numNegs = slices.Grow(sc.numNegs[:0], m)[:m]
		return sc
	}
	return par.ForEachChunk(len(cols), perChunk, workers, newScratch, func(start, end int, sc *evalScratch) error {
		n := (end - start) * wRows * k
		ts, nums, denNegs := sc.ts[:n], sc.nums[:n], sc.denNegs[:n]
		for j := start; j < end; {
			// The run of columns from j that decrypt under one key slice
			// raises its ct_0s in one call.
			keys := cols[j].keys
			if !sameKeys(keys, sc.recoded) {
				for i, fk := range keys {
					sc.keys[i] = fk.K
				}
				sc.dens = p.RecodeSigned(sc.keys, sc.dens)
				sc.recoded = keys
			}
			sc.bases = sc.bases[:0]
			run := j
			for ; run < end && sameKeys(cols[run].keys, keys); run++ {
				sc.bases = append(sc.bases, cols[run].ct0)
			}
			first, last := (j-start)*wRows*k, (run-start)*wRows*k
			sc.dens.PowRecoded(ts[first:last], denNegs[first:last], sc.bases)
			for j < run {
				// The columns from j on that share one support, up to
				// numeratorCols of them, take one numerator call.
				support, at := cols[j].support, (j-start)*wRows*k
				sc.coords = sc.coords[:0]
				for ; j < run && len(sc.coords) < numeratorCols && sameSupport(cols[j].support, support); j++ {
					sc.coords = append(sc.coords, cols[j].coords)
				}
				end := (j - start) * wRows * k
				numNegs := sc.numNegs[:end-at]
				sc.mexp = p.MultiExpInt64RowsMontParts(nums[at:end], numNegs, sc.coords, support, w, sc.mexp)
				for c := at; c < end; c += k {
					mc.MulMont(ts[c:c+k], ts[c:c+k], numNegs[c-at:c-at+k])
				}
			}
		}
		var err error
		if sc.inv, err = quotients(mc, ts, nums, denNegs, sc.inv); err != nil {
			return fmt.Errorf("securemat: batch inversion for columns %d–%d: %w", start, end-1, err)
		}
		for j := start; j < end; j++ {
			c := (j - start) * wRows * k
			if err := sink(j, ts[c:c+wRows*k]); err != nil {
				return err
			}
		}
		return nil
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

// quotients finishes a run of FEIP cells in place. On entry ts[t] holds
// numNeg_t·denPos_t — everything below the bar — and nums/denNegs hold
// numPos_t and denNeg_t; on return ts[t] = numPos·denNeg/(numNeg·denPos) =
// g^{⟨w,x⟩}, for the price of one inversion shared by the whole run. inv is
// batch-inversion scratch, grown and returned for reuse.
func quotients(mc *group.MontCtx, ts, nums, denNegs, inv []uint64) ([]uint64, error) {
	inv, err := mc.BatchInvMont(ts, inv)
	if err != nil {
		return inv, err
	}
	k := mc.Limbs()
	for c := 0; c < len(ts); c += k {
		gamma := ts[c : c+k]
		mc.MulMont(gamma, gamma, nums[c:c+k])
		mc.MulMont(gamma, gamma, denNegs[c:c+k])
	}
	return inv, nil
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

// scratchLoan lends the workers of one product their scratch from a
// session pool and gives every piece back once they are joined, so a
// worker's memory lasts from product to product.
type scratchLoan[T any] struct {
	pool  *sync.Pool
	mu    sync.Mutex
	taken []*T
}

func (l *scratchLoan[T]) get() *T {
	sc, _ := l.pool.Get().(*T)
	if sc == nil {
		sc = new(T)
	}
	l.mu.Lock()
	l.taken = append(l.taken, sc)
	l.mu.Unlock()
	return sc
}

// giveBack returns every piece lent, after forget (when not nil) has
// cleared what must not outlive the product.
func (l *scratchLoan[T]) giveBack(forget func(*T)) {
	for _, sc := range l.taken {
		if forget != nil {
			forget(sc)
		}
		l.pool.Put(sc)
	}
}

// elemScratch is one decryptElemBatched worker's memory, recycled across
// products through the session's elemPool: every slab is overwritten
// before it is read.
type elemScratch struct {
	nums []uint64 // per-cell numerators
	dens []uint64 // per-cell denominators, inverted chunk-wide
	inv  []uint64 // batch-inversion prefix scratch
	fe   febo.DecryptScratch
}

// decryptElemBatched fills z[i][j] = x[i][j] Δ y[i][j] for the element-wise
// FEBO decryptions, entirely in the Montgomery domain: per-cell numerator
// and denominator come from febo.DecryptPartsMont as raw limb elements
// (a short ladder on the multiplier for ×, a full-width one for ÷), each
// chunk's denominators collapse into one batched inversion, and the
// quotients feed the dlog solver without a big.Int round-trip — the same
// pipeline shape as evalColumns, whose scratch it recycles the same way.
func (e *Engine) decryptElemBatched(pk *febo.PublicKey, enc *EncryptedMatrix, keys [][]*febo.FunctionKey, op febo.Op, y [][]int64, workers int, z [][]int64) error {
	rows, cols := enc.Rows, enc.Cols
	total := rows * cols
	if total == 0 {
		return nil
	}
	workers = min(workers, total)
	mc := pk.Params.Mont()
	k := mc.Limbs()
	chunk := chunkSize(total, workers)
	loan := scratchLoan[elemScratch]{pool: &e.shared.elemPool}
	defer loan.giveBack(nil)
	newScratch := func() *elemScratch {
		sc := loan.get()
		sc.nums = slices.Grow(sc.nums[:0], chunk*k)[:chunk*k]
		sc.dens = slices.Grow(sc.dens[:0], chunk*k)[:chunk*k]
		return sc
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
		return e.shared.dlog.solveCells(e.solver, sc.dens[:n*k], k, z, start, 1)
	}
	return par.ForEachChunk(total, chunk, workers, newScratch, doChunk)
}
