package dlog

import (
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"cryptonn/internal/group"
)

func newTestSolver(t testing.TB, bound int64) *Solver {
	t.Helper()
	s, err := NewSolver(group.TestParams(), bound)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	return s
}

func TestLookupExhaustiveSmall(t *testing.T) {
	p := group.TestParams()
	s := newTestSolver(t, 50)
	for x := int64(-50); x <= 50; x++ {
		got, err := s.Lookup(p.PowGInt64(x))
		if err != nil {
			t.Fatalf("Lookup(g^%d): %v", x, err)
		}
		if got != x {
			t.Fatalf("Lookup(g^%d) = %d", x, got)
		}
	}
}

func TestLookupBoundaryValues(t *testing.T) {
	p := group.TestParams()
	s := newTestSolver(t, 1000)
	for _, x := range []int64{-1000, -999, -1, 0, 1, 999, 1000} {
		got, err := s.Lookup(p.PowGInt64(x))
		if err != nil {
			t.Fatalf("Lookup(g^%d): %v", x, err)
		}
		if got != x {
			t.Errorf("Lookup(g^%d) = %d", x, got)
		}
	}
}

func TestLookupOutOfRange(t *testing.T) {
	p := group.TestParams()
	s := newTestSolver(t, 100)
	for _, x := range []int64{101, -101, 5000, -99999} {
		if _, err := s.Lookup(p.PowGInt64(x)); !errors.Is(err, ErrNotFound) {
			t.Errorf("Lookup(g^%d) err = %v, want ErrNotFound", x, err)
		}
	}
}

func TestLookupLargeBoundRandom(t *testing.T) {
	p := group.TestParams()
	s := newTestSolver(t, 1_000_000)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		x := rng.Int63n(2_000_001) - 1_000_000
		got, err := s.Lookup(p.PowGInt64(x))
		if err != nil {
			t.Fatalf("Lookup(g^%d): %v", x, err)
		}
		if got != x {
			t.Fatalf("Lookup(g^%d) = %d", x, got)
		}
	}
}

func TestNewSolverRejectsBadInputs(t *testing.T) {
	if _, err := NewSolver(nil, 10); err == nil {
		t.Error("nil params should fail")
	}
	if _, err := NewSolver(group.TestParams(), 0); err == nil {
		t.Error("zero bound should fail")
	}
	if _, err := NewSolver(group.TestParams(), -5); err == nil {
		t.Error("negative bound should fail")
	}
}

func TestLookupNil(t *testing.T) {
	s := newTestSolver(t, 10)
	if _, err := s.Lookup(nil); err == nil {
		t.Error("nil element should fail")
	}
}

func TestConcurrentLookups(t *testing.T) {
	p := group.TestParams()
	s := newTestSolver(t, 10_000)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				x := rng.Int63n(20_001) - 10_000
				got, err := s.Lookup(p.PowGInt64(x))
				if err != nil || got != x {
					errCh <- errors.New("concurrent lookup mismatch")
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// Property: Lookup inverts exponentiation on the whole signed range.
func TestQuickLookupInvertsPowG(t *testing.T) {
	p := group.TestParams()
	s := newTestSolver(t, 1<<20)
	f := func(x int32) bool {
		v := int64(x) % (1 << 20)
		got, err := s.Lookup(p.PowGInt64(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTableSizeScalesWithSqrtBound(t *testing.T) {
	small := newTestSolver(t, 100)
	large := newTestSolver(t, 10_000)
	if small.TableSize() >= large.TableSize() {
		t.Errorf("table sizes: small=%d large=%d", small.TableSize(), large.TableSize())
	}
	if small.Bound() != 100 || large.Bound() != 10_000 {
		t.Error("Bound accessor mismatch")
	}
}

// Regression: the final giant step can match a shifted value just past
// 2*bound; the scan must continue (not break) and the exact boundary
// values x = ±Bound must resolve for bounds with every residue of the
// search range size n = 2b+1 modulo the baby-step count m.
func TestLookupExactBoundarySweep(t *testing.T) {
	p := group.TestParams()
	for _, bound := range []int64{1, 2, 3, 4, 7, 10, 31, 99, 100, 127, 1023} {
		s := newTestSolver(t, bound)
		for _, x := range []int64{-bound, -bound + 1, 0, bound - 1, bound} {
			got, err := s.Lookup(p.PowGInt64(x))
			if err != nil {
				t.Fatalf("bound=%d: Lookup(g^%d): %v", bound, x, err)
			}
			if got != x {
				t.Fatalf("bound=%d: Lookup(g^%d) = %d", bound, x, got)
			}
		}
		for _, x := range []int64{bound + 1, -bound - 1, 2*bound + 1} {
			if _, err := s.Lookup(p.PowGInt64(x)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("bound=%d: Lookup(g^%d) err = %v, want ErrNotFound", bound, x, err)
			}
		}
	}
}

// White-box: the open-addressing table resolves duplicate low-64 keys via
// the spill list, and distinct keys that probe into each other stay
// retrievable.
func TestBabyTableCollisions(t *testing.T) {
	tab := newBabyTable(8)
	const key = 0xDEADBEEF12345678
	tab.insert(key, 3)
	tab.insert(key, 5) // duplicate key → spill
	tab.insert(key, 9) // second duplicate
	if got := tab.find(key); got != 3 {
		t.Fatalf("find(dup key) = %d, want main entry 3", got)
	}
	if len(tab.spill) != 2 || tab.spill[0].j != 5 || tab.spill[1].j != 9 {
		t.Fatalf("spill = %+v, want entries for 5 and 9", tab.spill)
	}
	// Distinct keys landing in the same slot chain via linear probing.
	slotOf := func(k uint64) uint64 { return tab.slot(k) }
	base := uint64(1)
	var clash uint64
	for c := uint64(2); ; c++ {
		if slotOf(c) == slotOf(base) {
			clash = c
			break
		}
	}
	tab.insert(base, 100)
	tab.insert(clash, 200)
	if got := tab.find(base); got != 100 {
		t.Errorf("find(base) = %d", got)
	}
	if got := tab.find(clash); got != 200 {
		t.Errorf("find(probed key) = %d", got)
	}
	if got := tab.find(0x1234); got != -1 {
		t.Errorf("find(absent) = %d, want -1", got)
	}
}

// White-box: a query whose low-64 key collides with a stored baby step but
// whose element differs must not produce a false hit — the exact-match
// verification rejects it and the scan continues to the true answer.
func TestLookupSurvivesForgedKeyCollision(t *testing.T) {
	p := group.TestParams()
	s := newTestSolver(t, 1000)
	// Forge: remap every baby-step key so that the key of g^0's slot also
	// appears as a spill entry pointing at a bogus j. Lookup must reject
	// the bogus candidate via the element comparison and still answer.
	key0 := s.elems[0] // low limb of mont(g^0)
	s.tab.spill = append(s.tab.spill, spillEntry{key: key0, j: 7})
	for _, x := range []int64{0, 1, -1, 999, -1000, 1000} {
		got, err := s.Lookup(p.PowGInt64(x))
		if err != nil {
			t.Fatalf("Lookup(g^%d): %v", x, err)
		}
		if got != x {
			t.Fatalf("Lookup(g^%d) = %d with forged spill entry", x, got)
		}
	}
}

// White-box: a main-table entry whose key matches the query but whose
// element does not (a query-time collision) must fall through to the spill
// list where the true baby step lives.
func TestLookupCollisionFallsBackToSpill(t *testing.T) {
	p := group.TestParams()
	s := newTestSolver(t, 500)
	k := s.k
	// Pick baby step j=4 and force its main slot to claim a wrong index
	// (j=2), moving the true mapping into the spill list. The elements of
	// j=2 and j=4 differ, so only exact-match + spill recovery can answer
	// queries that land on baby step 4.
	key := s.elems[4*k]
	slot := s.tab.slot(key)
	for s.tab.keys[slot] != key {
		slot = (slot + 1) & s.tab.mask
	}
	s.tab.vals[slot] = 2 + 1 // wrong j in the main table
	s.tab.spill = append(s.tab.spill, spillEntry{key: key, j: 4})
	want := int64(4) - s.bound + 0*s.m // x whose first giant step hits baby 4
	got, err := s.Lookup(p.PowGInt64(want))
	if err != nil {
		t.Fatalf("Lookup via spill: %v", err)
	}
	if got != want {
		t.Fatalf("Lookup via spill = %d, want %d", got, want)
	}
}

// The Montgomery-domain scan must agree with the group's naive big.Int
// arithmetic on collision-heavy inputs: a dense stripe of values around
// both bounds, compared against Params.Exp ground truth.
func TestLookupMatchesNaiveExp(t *testing.T) {
	p := group.TestParams()
	s := newTestSolver(t, 300)
	var e big.Int
	for x := int64(-300); x <= 300; x += 7 {
		h := p.Exp(p.G, e.SetInt64(x))
		got, err := s.Lookup(h)
		if err != nil {
			t.Fatalf("Lookup(Exp(g,%d)): %v", x, err)
		}
		if got != x {
			t.Fatalf("Lookup(Exp(g,%d)) = %d", x, got)
		}
	}
}

// The paper-scale 256-bit group exercises the multi-limb Montgomery path.
func TestLookupPaperGroup(t *testing.T) {
	p, err := group.Embedded(group.PaperBits)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(p, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{-5000, -1234, 0, 1, 4999, 5000} {
		got, err := s.Lookup(p.PowGInt64(x))
		if err != nil {
			t.Fatalf("Lookup(g^%d): %v", x, err)
		}
		if got != x {
			t.Fatalf("Lookup(g^%d) = %d", x, got)
		}
	}
	if _, err := s.Lookup(p.PowGInt64(5001)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("out-of-bound err = %v", err)
	}
}

func BenchmarkLookup(b *testing.B) {
	p := group.TestParams()
	s, err := NewSolver(p, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	h := p.PowGInt64(987_654)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Lookup(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupParallel drives one shared Solver from GOMAXPROCS
// goroutines — the paper's parallel decryption shape. Near-linear scaling
// here is what the lock-free table buys over a shared string-keyed map.
func BenchmarkLookupParallel(b *testing.B) {
	p := group.TestParams()
	s, err := NewSolver(p, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*big.Int, 16)
	for i := range queries {
		queries[i] = p.PowGInt64(int64(i+1) * 61_803)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := s.Lookup(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// TestSolverSharesCore: two solvers over the same Params must share one
// baby-step core when the second one's bound fits the already-built table
// — the whole point of the per-Params core cache.
func TestSolverSharesCore(t *testing.T) {
	params := group.TestParams()
	large, err := NewSolver(params, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewSolver(params, 100)
	if err != nil {
		t.Fatal(err)
	}
	if small.tab != large.tab {
		t.Fatal("solvers over one Params did not share the baby-step table")
	}
	if small.m != large.m {
		t.Fatalf("shared-core solver has m=%d, core has %d", small.m, large.m)
	}
	// A bound that outgrows the cached core rebuilds (and re-caches) a
	// bigger one.
	huge, err := NewSolver(params, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if huge.tab == large.tab {
		t.Fatal("outgrown core was not rebuilt")
	}
	reuse, err := NewSolver(params, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if reuse.tab != huge.tab {
		t.Fatal("later solver did not pick up the enlarged core")
	}
}

// TestSolverReusedCoreCorrectness exercises a solver running on a core
// built for a much larger bound: the taller table changes m and the giant
// stride, so exhaustive and boundary lookups (±Bound exactly) plus
// out-of-range rejection must still hold.
func TestSolverReusedCoreCorrectness(t *testing.T) {
	params := group.TestParams()
	if _, err := NewSolver(params, 250_000); err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(params, 50)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(-50); x <= 50; x++ {
		got, err := s.Lookup(params.PowGInt64(x))
		if err != nil {
			t.Fatalf("Lookup(g^%d): %v", x, err)
		}
		if got != x {
			t.Fatalf("Lookup(g^%d) = %d", x, got)
		}
	}
	for _, x := range []int64{51, -51, 40_000} {
		if _, err := s.Lookup(params.PowGInt64(x)); !errors.Is(err, ErrNotFound) {
			t.Errorf("Lookup(g^%d) err = %v, want ErrNotFound", x, err)
		}
	}
}

// TestLookupMontMatchesLookup pins the Montgomery-form entry point against
// the big.Int one, and checks the query slice is left intact.
func TestLookupMontMatchesLookup(t *testing.T) {
	params := group.TestParams()
	s := newTestSolver(t, 1000)
	mc := params.Mont()
	for _, x := range []int64{-1000, -37, 0, 41, 999, 1000} {
		h := params.PowGInt64(x)
		hm := mc.Elem()
		mc.ToMont(hm, h)
		before := append([]uint64(nil), hm...)
		got, err := s.LookupMont(hm)
		if err != nil {
			t.Fatalf("LookupMont(g^%d): %v", x, err)
		}
		if got != x {
			t.Fatalf("LookupMont(g^%d) = %d", x, got)
		}
		for i := range hm {
			if hm[i] != before[i] {
				t.Fatal("LookupMont modified its input")
			}
		}
	}
	if _, err := s.LookupMont(make([]uint64, mc.Limbs())); !errors.Is(err, ErrNotFound) {
		t.Errorf("LookupMont(0) err = %v, want ErrNotFound", err)
	}
}
