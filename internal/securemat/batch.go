// Batched decryption pipeline.
//
// Every secure computation ends with one group division and one bounded
// discrete log per output cell. Computed cell-at-a-time, each cell pays a
// full extended-GCD modular inversion for its denominator and the worker
// pool pays one channel round-trip per cell. This file replaces that with
// a chunked pipeline: workers drain contiguous chunks of cells, compute
// all (numerator, denominator) pairs of a chunk as Montgomery-domain limb
// elements, invert the chunk's denominators together with a single modular
// inversion (Montgomery's trick, group.MontCtx.BatchInvMont), and only then
// run the dlog lookups (solveCells, never leaving the domain). Worker-local
// scratch persists across every chunk a worker drains, so the steady state
// allocates nothing per cell.

package securemat

import (
	"fmt"
	"math/big"
	"sync/atomic"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
)

// recodeKeys recodes every function key into the signed digits the
// ephemeral denominator tables consume, reusing digits' rows when their
// capacity suffices. A key depends on a row of W only (dense) or on a (row,
// support) pair (sparse), so callers recode at whichever granularity lets
// them share the result.
func recodeKeys(p *group.Params, keys []*feip.FunctionKey, digits [][]int16) error {
	for i, fk := range keys {
		if fk == nil || fk.K == nil {
			return fmt.Errorf("%w: empty function key %d", ErrShape, i)
		}
		digits[i] = p.RecodeSigned(fk.K, digits[i])
	}
	return nil
}

// denominators evaluates the FEIP denominators ct0^{k_i} of one ciphertext
// for every recoded key on one ephemeral table for ct0, sign-split: slot
// first+i·stride of pos and neg (in k-limb elements) receives the positive
// and negative accumulator, so the denominator is pos/neg and nothing is
// inverted here. tab is the previous ciphertext's table (nil for the first),
// rebuilt in place and returned for the next.
func denominators(p *group.Params, tab *group.EphemeralTable, ct0 *big.Int, digits [][]int16, pos, neg []uint64, first, stride int) *group.EphemeralTable {
	k := p.Mont().Limbs()
	tab = p.NewEphemeralTable(ct0, tab)
	for i, d := range digits {
		c := (first + i*stride) * k
		tab.PowRecoded(pos[c:c+k], neg[c:c+k], d)
	}
	return tab
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
// limbs each) is output cell first + t·stride of z in row-major order, so a
// dense chunk passes stride 1 and a sparse column its column index and
// stride cols. It stops at the first value outside the solver bound, names
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

// decryptDotBatched fills z[i][j] = ⟨vecs[i], x_j⟩ for the FEIP dot-product
// decryptions cell (i,j) = (cts[j], keys[i], vecs[i]), entirely in the
// Montgomery domain: numerators run the interleaved mont ladder
// (MultiExpInt64MontParts), denominators come from a precomputed cache,
// each chunk's divisions collapse into one batch inversion, and the final
// group element feeds the dlog solver without leaving the domain
// (solveCells).
//
// The denominator cache is the hoist the per-cell path could not see:
// ct0_j^{k_i} depends on the pair (row, column), but its base is shared by
// a whole column and its exponent by a whole row. Each key is recoded into
// signed windows once per call (not once per cell), each column gets one
// ephemeral table for its ct_0, and every denominator is then a handful of
// limb multiplications whose negative-digit half rides along to the chunk's
// one inversion.
//
// The callers have checked cts (checkCiphertexts): one ciphertext per
// column of z, each as wide as the rows of vecs.
func decryptDotBatched(p *group.Params, solver *dlog.Solver, counts *dlogCounters, cts []*feip.Ciphertext, keys []*feip.FunctionKey, vecs [][]int64, workers int, z [][]int64) error {
	rows, cols := len(keys), len(cts)
	total := rows * cols
	if total == 0 {
		return nil
	}
	if workers < 0 {
		workers = DefaultParallelism()
	}
	workers = min(max(workers, 1), total)
	mc := p.Mont()
	k := mc.Limbs()

	// Denominator cache: cell i·cols+j of denPos/denNeg holds the sign-split
	// ct0_j^{k_i} in Montgomery form, read-only once the chunk workers
	// start. One recoding per row, one table per column.
	digits := make([][]int16, rows)
	if err := recodeKeys(p, keys, digits); err != nil {
		return err
	}
	denPos := make([]uint64, total*k)
	denNeg := make([]uint64, total*k)
	var tab *group.EphemeralTable
	for j, ct := range cts {
		tab = denominators(p, tab, ct.Ct0, digits, denPos, denNeg, j, cols)
	}

	chunk := chunkSize(total, workers)
	type dotScratch struct {
		nums   []uint64 // per-cell numerator positive halves
		ts     []uint64 // per-cell (numerator negative half · denPos), then the cell value
		neg    []uint64
		inv    []uint64 // batch-inversion prefix scratch
		straus []uint64 // MultiExp table scratch
	}
	newScratch := func() *dotScratch {
		return &dotScratch{
			nums: make([]uint64, chunk*k),
			ts:   make([]uint64, chunk*k),
			neg:  make([]uint64, k),
		}
	}
	doChunk := func(start, end int, sc *dotScratch) error {
		n := end - start
		for t, idx := 0, start; idx < end; t, idx = t+1, idx+1 {
			i, j := idx/cols, idx%cols
			num := sc.nums[t*k : (t+1)*k]
			sc.straus = p.MultiExpInt64MontParts(num, sc.neg, cts[j].Ct, vecs[i], sc.straus)
			mc.MulMont(sc.ts[t*k:(t+1)*k], sc.neg, denPos[idx*k:(idx+1)*k])
		}
		var err error
		if sc.inv, err = quotients(mc, sc.ts[:n*k], sc.nums[:n*k], denNeg[start*k:end*k], sc.inv); err != nil {
			return fmt.Errorf("securemat: batch inversion: %w", err)
		}
		return counts.solveCells(solver, sc.ts[:n*k], k, z, start, 1)
	}
	return forEachChunk(total, chunk, workers, newScratch, doChunk)
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
// pipeline shape as decryptDotBatched.
func decryptElemBatched(pk *febo.PublicKey, solver *dlog.Solver, counts *dlogCounters, enc *EncryptedMatrix, keys [][]*febo.FunctionKey, op febo.Op, y [][]int64, workers int, z [][]int64) error {
	rows, cols := enc.Rows, enc.Cols
	total := rows * cols
	if total == 0 {
		return nil
	}
	if workers < 0 {
		workers = DefaultParallelism()
	}
	workers = min(max(workers, 1), total)
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
	return forEachChunk(total, chunk, workers, newScratch, doChunk)
}
