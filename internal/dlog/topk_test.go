package dlog

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"cryptonn/internal/group"
)

// referenceTopK computes the exact arg-top-k by full dlog of every label.
func referenceTopK(t *testing.T, s *Solver, zs []int64, k int) []TopKHit {
	t.Helper()
	hits := make([]TopKHit, len(zs))
	for i, z := range zs {
		hits[i] = TopKHit{Index: i, Value: z}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Value != hits[b].Value {
			return hits[a].Value > hits[b].Value
		}
		return hits[a].Index < hits[b].Index
	})
	if k > len(hits) {
		k = len(hits)
	}
	return hits[:k]
}

// topK runs the ceiling-less scan (zMax = Bound) over big.Int elements.
func topK(s *Solver, hs []*big.Int, k int) ([]TopKHit, TopKStats, error) {
	slab := make([]uint64, len(hs)*s.k)
	for i, h := range hs {
		s.mont.ToMont(slab[i*s.k:(i+1)*s.k], h)
	}
	return s.TopKMontBounded(slab, k, s.Bound())
}

func elemsFor(p *group.Params, zs []int64) []*big.Int {
	hs := make([]*big.Int, len(zs))
	for i, z := range zs {
		hs[i] = p.PowGInt64(z)
	}
	return hs
}

// TestTopKMatchesFullSolve is the randomized exactness property: the
// descending simultaneous scan must return exactly the k largest values
// (ties broken by lower index) that a full per-label solve would.
func TestTopKMatchesFullSolve(t *testing.T) {
	s := newTestSolver(t, 50_000)
	p := group.TestParams()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(300)
		k := 1 + rng.Intn(20)
		zs := make([]int64, n)
		for i := range zs {
			zs[i] = rng.Int63n(100_001) - 50_000
			if rng.Intn(5) == 0 && i > 0 {
				zs[i] = zs[rng.Intn(i)] // force ties
			}
		}
		hits, stats, err := topK(s, elemsFor(p, zs), k)
		if err != nil {
			t.Fatalf("trial %d: TopK: %v", trial, err)
		}
		want := referenceTopK(t, s, zs, k)
		if len(hits) != len(want) {
			t.Fatalf("trial %d: got %d hits, want %d", trial, len(hits), len(want))
		}
		for i := range hits {
			if hits[i] != want[i] {
				t.Fatalf("trial %d: hit %d = %+v, want %+v", trial, i, hits[i], want[i])
			}
		}
		kWant := k
		if kWant > n {
			kWant = n
		}
		if stats.Solved < kWant || stats.Solved+stats.Skipped != n {
			t.Fatalf("trial %d: inconsistent stats %+v (n=%d, k=%d)", trial, stats, n, k)
		}
	}
}

// TestTopKSolvesExactlyK is the acceptance counter-assertion: a 5000-label
// layer whose 10 winners each stand a full giant-step round apart must
// resolve exactly k=10 dlogs — the scan stops at the k-th resolution's
// round boundary and the remaining 4990 labels are never solved.
func TestTopKSolvesExactlyK(t *testing.T) {
	const (
		bound  = 1_000_000
		labels = 5000
		k      = 10
	)
	s := newTestSolver(t, bound)
	p := group.TestParams()
	m := int64(s.TableSize())
	zs := make([]int64, labels)
	rng := rand.New(rand.NewSource(77))
	for i := range zs {
		zs[i] = rng.Int63n(2001) - 1000 // the field: resolves ~bound/m rounds in
	}
	// Winner t sits at e = bound − z = t·m, i.e. resolves alone in round t.
	for t2 := 0; t2 < k; t2++ {
		zs[100*t2+7] = bound - int64(t2)*m
	}
	hits, stats, err := topK(s, elemsFor(p, zs), k)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if stats.Solved != k {
		t.Fatalf("Solved = %d, want exactly %d (stats %+v)", stats.Solved, k, stats)
	}
	if stats.Skipped != labels-k {
		t.Fatalf("Skipped = %d, want %d", stats.Skipped, labels-k)
	}
	if stats.Rounds != k {
		t.Fatalf("Rounds = %d, want %d (one winner per round)", stats.Rounds, k)
	}
	for t2, h := range hits {
		if want := (TopKHit{Index: 100*t2 + 7, Value: bound - int64(t2)*m}); h != want {
			t.Fatalf("hit %d = %+v, want %+v", t2, h, want)
		}
	}
}

// TestTopKEdgeCases covers k ≥ n (degenerates to a full solve), the empty
// slab, invalid k, negative winners, and out-of-bound labels (error with
// partial results).
func TestTopKEdgeCases(t *testing.T) {
	s := newTestSolver(t, 1000)
	p := group.TestParams()

	// k > n returns all labels, still sorted.
	hits, stats, err := topK(s, elemsFor(p, []int64{-5, 900, 3}), 10)
	if err != nil {
		t.Fatalf("k>n: %v", err)
	}
	if len(hits) != 3 || hits[0].Value != 900 || hits[1].Value != 3 || hits[2].Value != -5 {
		t.Fatalf("k>n hits = %+v", hits)
	}
	if stats.Solved != 3 || stats.Skipped != 0 {
		t.Fatalf("k>n stats = %+v", stats)
	}

	// All-negative values: the descending scan must still find them.
	hits, _, err = topK(s, elemsFor(p, []int64{-800, -1000, -900}), 2)
	if err != nil {
		t.Fatalf("negative: %v", err)
	}
	if hits[0].Value != -800 || hits[1].Value != -900 {
		t.Fatalf("negative hits = %+v", hits)
	}

	// Empty input.
	if hits, stats, err = topK(s, nil, 3); err != nil || len(hits) != 0 || stats.Solved != 0 {
		t.Fatalf("empty: hits=%v stats=%+v err=%v", hits, stats, err)
	}

	// Invalid k.
	if _, _, err = topK(s, elemsFor(p, []int64{1}), 0); err == nil {
		t.Fatal("k=0 accepted")
	}

	// A label outside the bound can never resolve: asking for more hits
	// than resolvable labels errors, returning the resolvable ones.
	out := []*big.Int{p.PowGInt64(500), p.Exp(p.G, big.NewInt(5_000_000))}
	hits, stats, err = topK(s, out, 2)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("out-of-bound: err = %v, want ErrNotFound", err)
	}
	if len(hits) != 1 || hits[0].Value != 500 || stats.Solved != 1 || stats.Skipped != 1 {
		t.Fatalf("out-of-bound partial: hits=%v stats=%+v", hits, stats)
	}

	// Malformed slab width.
	if _, _, err := s.TopKMontBounded(make([]uint64, s.k+1), 1, s.Bound()); err == nil && s.k > 1 {
		t.Fatal("ragged slab accepted")
	}
}

// TestTopKBoundedMatchesUnbounded pins the ceiling fast path against the
// plain scan: with any valid ceiling (tight, loose, or beyond the bound)
// the hits are identical, and a tight ceiling provably skips rounds.
func TestTopKBoundedMatchesUnbounded(t *testing.T) {
	const bound = 200_000
	s := newTestSolver(t, bound)
	p := group.TestParams()
	rng := rand.New(rand.NewSource(33))
	n, k := 150, 7
	zs := make([]int64, n)
	var zTop int64 = -bound
	for i := range zs {
		zs[i] = rng.Int63n(2001) - 1000 // far below the solver bound
		if zs[i] > zTop {
			zTop = zs[i]
		}
	}
	kl := s.k
	slab := make([]uint64, n*kl)
	for i, z := range zs {
		s.mont.ToMont(slab[i*kl:(i+1)*kl], p.PowGInt64(z))
	}
	base, baseStats, err := s.TopKMontBounded(slab, k, s.Bound())
	if err != nil {
		t.Fatal(err)
	}
	for _, zMax := range []int64{zTop, zTop + 5000, bound, bound + 1} {
		hits, stats, err := s.TopKMontBounded(slab, k, zMax)
		if err != nil {
			t.Fatalf("zMax=%d: %v", zMax, err)
		}
		if len(hits) != len(base) {
			t.Fatalf("zMax=%d: %d hits, want %d", zMax, len(hits), len(base))
		}
		for i := range hits {
			if hits[i] != base[i] {
				t.Fatalf("zMax=%d: hit %d = %+v, want %+v", zMax, i, hits[i], base[i])
			}
		}
		if zMax <= zTop+5000 && stats.Rounds >= baseStats.Rounds {
			t.Errorf("zMax=%d: %d rounds, no faster than unbounded %d", zMax, stats.Rounds, baseStats.Rounds)
		}
	}
	// An extreme ceiling below every label: nothing can resolve.
	if hits, _, err := s.TopKMontBounded(slab, k, -bound-10); !errors.Is(err, ErrNotFound) || len(hits) != 0 {
		t.Errorf("impossible ceiling: hits=%v err=%v, want none/ErrNotFound", hits, err)
	}
}

// BenchmarkTopKDecrypt sweeps k on a 5000-label layer with a top-heavy
// logit distribution (winners near the bound, field near zero — the shape
// a trained classifier head produces). full/ is the per-label Lookup
// reference the top-k scan replaces.
func BenchmarkTopKDecrypt(b *testing.B) {
	const (
		bound  = 1_000_000
		labels = 5000
	)
	params := group.TestParams()
	s, err := NewSolver(params, bound)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	zs := make([]int64, labels)
	for i := range zs {
		zs[i] = rng.Int63n(20_001) - 10_000
	}
	for t := 0; t < 100; t++ { // a heavy top-100 band
		zs[50*t+3] = bound - rng.Int63n(50_000)
	}
	kl := s.k
	slab := make([]uint64, labels*kl)
	for i, z := range zs {
		s.mont.ToMont(slab[i*kl:(i+1)*kl], params.PowGInt64(z))
	}
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("labels=%d/k=%d", labels, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := s.TopKMontBounded(slab, k, s.Bound()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run(fmt.Sprintf("labels=%d/full", labels), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < labels; j++ {
				if _, err := s.LookupMont(slab[j*kl : (j+1)*kl]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	// A centered field (no label near the solver bound) is the worst case
	// for the plain scan — it walks ~bound/m empty rounds before anything
	// resolves. The ceiling variant starts at the first plausible round.
	centered := make([]uint64, labels*kl)
	var zTop int64 = -bound
	for i := range zs {
		z := rng.Int63n(20_001) - 10_000
		if z > zTop {
			zTop = z
		}
		s.mont.ToMont(centered[i*kl:(i+1)*kl], params.PowGInt64(z))
	}
	b.Run(fmt.Sprintf("labels=%d/k=10/centered-plain", labels), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.TopKMontBounded(centered, 10, s.Bound()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("labels=%d/k=10/centered-ceiling", labels), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.TopKMontBounded(centered, 10, zTop); err != nil {
				b.Fatal(err)
			}
		}
	})
}
