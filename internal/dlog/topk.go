package dlog

import (
	"errors"
	"fmt"
	"sort"
)

// Top-k discrete-log extraction for wide output layers.
//
// An extreme multi-label head produces thousands of logit elements g^{z_i}
// per sample, of which only the k largest z_i matter. Solving every dlog
// costs ~2·|z_i|/m ladder steps per label (Lookup's centre-out scan); the
// top-k scan instead runs ONE giant-step ladder simultaneously across all
// labels, in descending value order from a caller-supplied ceiling, and
// stops as soon as the k winners have resolved.
//
// Mechanism (the "descending simultaneous scan"): each logit is first
// inverted — one shared Montgomery batch inversion for the whole layer —
// and shifted, γ_i = g^{bound−z_i}, so the exponent the BSGS ladder sees is
// e_i = bound − z_i ∈ [0, 2·bound]: the LARGER the logit, the SMALLER e_i.
// The standard baby-step table resolves exponents in ascending e order
// (round r matches e ∈ [r·m, (r+1)·m)), so walking all labels down the
// shared ladder surfaces the largest logits first, paying one MulMont and
// one hash probe per still-unresolved label per round.
//
// Soundness of the selection: after round r completes, every label with
// e_i < (r+1)·m has resolved, i.e. every unresolved label has
// z_i ≤ bound − (r+1)·m, strictly below every resolved label's value
// (resolved means z_j ≥ bound − (r+1)·m + 1). So the moment ≥ k labels
// have resolved at a round boundary, the resolved set is a superset of the
// exact arg-top-k — no unresolved label can beat any resolved one. Sorting
// the resolved labels by value and trimming to k yields the exact answer;
// ties within the cut are broken by lower index, deterministically. The
// cost is adaptive: k winners standing r* rounds above the field cost
// about n·r* multiplications; a pathologically flat logit distribution
// degrades toward the full-solve cost, never beyond one extra round.

// TopKHit is one resolved logit: the label index and its discrete log.
type TopKHit struct {
	Index int
	Value int64
}

// TopKStats reports what a top-k scan actually did — the counters behind
// the "k dlogs, not n" claim, exposed through engine stats and /metrics.
type TopKStats struct {
	Solved  int // dlogs recovered before the scan stopped
	Skipped int // labels whose dlog was never solved
	Rounds  int // giant-step rounds executed (shared across all labels)
}

// TopKMontBounded returns the k largest discrete logs among the flat slab
// elems of len(elems)/Limbs() Montgomery-form elements (g^{z_0}, …), as
// produced by the in-domain decryption pipelines, with their indices,
// sorted by value descending (ties by ascending index), plus scan
// statistics. Every z_i must lie in [-Bound, Bound]; if fewer than
// min(k, n) labels resolve within the bound, the hits found so far are
// returned alongside an ErrNotFound-wrapped error. elems is left
// unmodified.
//
// zMax is a caller-supplied ceiling: every z_i is promised to be ≤ zMax.
// The descending scan then starts at the first giant-step round that can
// contain e = bound − zMax, skipping the empty ladder prefix outright — one fixed-base exponentiation g^{−m·r₀} shared
// by the whole layer buys r₀ rounds of n multiplications each. With a
// ceiling tight to the data (a logit bound derived from plaintext weight
// magnitudes, say) the scan cost drops from ~bound/m rounds to
// ~(zMax − z_k)/m. The contract has the same character as the solver bound
// itself: a label whose true z exceeds zMax lands in the skipped prefix
// and is silently missing from the ranking, exactly as a value outside
// [−Bound, Bound] is unrecoverable by Lookup. Callers with no better
// ceiling pass Bound(), which skips nothing.
func (s *Solver) TopKMontBounded(elems []uint64, k int, zMax int64) ([]TopKHit, TopKStats, error) {
	kl := s.k
	if k <= 0 {
		return nil, TopKStats{}, fmt.Errorf("dlog: top-k count must be positive, got %d", k)
	}
	if len(elems)%kl != 0 {
		return nil, TopKStats{}, errors.New("dlog: element slab not a multiple of the limb width")
	}
	n := len(elems) / kl
	if n == 0 {
		return nil, TopKStats{}, nil
	}
	if k > n {
		k = n
	}
	// γ_i = elems_i^{-1} · g^{bound} = g^{bound − z_i}; one batch inversion
	// covers the whole layer.
	gammas := make([]uint64, len(elems))
	copy(gammas, elems)
	if _, err := s.mont.BatchInvMont(gammas, nil); err != nil {
		return nil, TopKStats{}, fmt.Errorf("dlog: top-k inversion: %w", err)
	}
	for i := 0; i < n; i++ {
		g := gammas[i*kl : (i+1)*kl]
		s.mont.MulMont(g, g, s.shiftM)
	}
	// Rounds below r0 cover e < r0·m ≤ bound − zMax, which no label can
	// occupy; jump the whole layer there with one shared power of the
	// giant step.
	var r0 int64
	if zMax < s.bound {
		lo := zMax
		if lo < -s.bound {
			lo = -s.bound
		}
		r0 = (s.bound - lo) / s.m
		if skip := s.m * r0; skip > 0 {
			jump := make([]uint64, kl)
			s.mont.ToMont(jump, s.params.PowGInt64(-skip))
			for i := 0; i < n; i++ {
				g := gammas[i*kl : (i+1)*kl]
				s.mont.MulMont(g, g, jump)
			}
		}
	}
	active := make([]int32, n)
	for i := range active {
		active[i] = int32(i)
	}
	hits := make([]TopKHit, 0, k)
	rounds := 0
	for r := r0; r <= s.steps && len(hits) < k; r++ {
		rounds++
		// The whole round always completes: stopping mid-round could
		// resolve a label while skipping a same-round (larger or equal)
		// one earlier in the slab, breaking the superset argument.
		w := 0
		for _, i := range active {
			g := gammas[int(i)*kl : (int(i)+1)*kl]
			if v, ok := s.probeRound(g, r); ok {
				hits = append(hits, TopKHit{Index: int(i), Value: v})
				continue
			}
			s.mont.MulMont(g, g, s.giantM)
			active[w] = i
			w++
		}
		active = active[:w]
	}
	stats := TopKStats{Solved: len(hits), Skipped: n - len(hits), Rounds: rounds}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Value != hits[b].Value {
			return hits[a].Value > hits[b].Value
		}
		return hits[a].Index < hits[b].Index
	})
	if len(hits) < k {
		return hits, stats, fmt.Errorf("%w: top-%d scan resolved only %d labels (bound %d)", ErrNotFound, k, len(hits), s.bound)
	}
	return hits[:k], stats, nil
}

// probeRound checks whether gamma (the round-r ladder position of a label)
// is a baby step: a hit at baby index j means e = r·m + j, so the label's
// value is bound − e, valid only while e ≤ 2·bound — an out-of-range match
// (possible in the final round) must not resolve the label.
func (s *Solver) probeRound(gamma []uint64, r int64) (int64, bool) {
	j := s.probe(gamma)
	if j < 0 {
		return 0, false
	}
	if e := r*s.m + j; e <= 2*s.bound {
		return s.bound - e, true
	}
	return 0, false
}
