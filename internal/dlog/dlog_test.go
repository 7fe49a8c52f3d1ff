package dlog

import (
	"errors"
	"fmt"
	"math"
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

// naiveLogs is the differential reference: every element g^x of the range
// [-bound, bound], keyed by value, built by repeated multiplication with no
// table, ladder or Montgomery arithmetic in common with the solver.
func naiveLogs(p *group.Params, bound int64) map[string]int64 {
	logs := make(map[string]int64, 2*bound+1)
	gInv := p.Inv(p.G)
	up, down := big.NewInt(1), big.NewInt(1)
	logs[up.String()] = 0
	for x := int64(1); x <= bound; x++ {
		up = p.Mul(up, p.G)
		down = p.Mul(down, gInv)
		logs[up.String()] = x
		logs[down.String()] = -x
	}
	return logs
}

// checkAgainstNaive queries g^x and holds the answer to the reference map:
// the mapped value when the element is in it, ErrNotFound otherwise.
func checkAgainstNaive(t *testing.T, s *Solver, logs map[string]int64, x int64) {
	t.Helper()
	h := s.params.PowGInt64(x)
	got, err := s.Lookup(h)
	if want, ok := logs[h.String()]; ok {
		if err != nil || got != want {
			t.Fatalf("bound %d, m %d: Lookup(g^%d) = %d, %v; want %d", s.bound, s.m, x, got, err, want)
		}
	} else if !errors.Is(err, ErrNotFound) {
		t.Fatalf("bound %d, m %d: Lookup(g^%d) = %d, %v; want ErrNotFound", s.bound, s.m, x, got, err)
	}
}

// TestLookupExhaustiveSmall is the differential property of the centre-out
// scan: on exhaustive small bounds, every x in the range — and a margin of
// more than one window beyond each end — resolves exactly as a naive
// element → x map says, in the 64-bit test group and the paper's 256-bit
// one.
func TestLookupExhaustiveSmall(t *testing.T) {
	for _, bits := range []int{group.TestBits, group.PaperBits} {
		p, err := group.Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []int64{1, 2, 3, 4, 7, 12, 50, 127, 600} {
			s, err := NewSolver(p, bound)
			if err != nil {
				t.Fatal(err)
			}
			logs := naiveLogs(p, bound)
			for x := -bound - s.m - 2; x <= bound+s.m+2; x++ {
				checkAgainstNaive(t, s, logs, x)
			}
		}
	}
}

// TestLookupWindowEdges walks the seams of the centre-out tiling on a bound
// too large to exhaust: the two ends of the centre window, the first value
// of each ladder's first and second window, and the bound itself from both
// sides.
func TestLookupWindowEdges(t *testing.T) {
	for _, bits := range []int{group.TestBits, group.PaperBits} {
		p, err := group.Embedded(bits)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSolver(p, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		m, half, b := s.m, s.m/2, s.bound
		for _, x := range []int64{
			0, half - 1, half, half + 1, m - half - 1, m - half, m - half + 1, m - 1, m, m + 1, 2*m - half - 1, 2*m - half,
			b - m, b - 1, b,
		} {
			for _, v := range []int64{x, -x} {
				got, err := s.Lookup(p.PowGInt64(v))
				if err != nil || got != v {
					t.Fatalf("%d-bit: Lookup(g^%d) = %d, %v", bits, v, got, err)
				}
			}
		}
		for _, x := range []int64{b + 1, -b - 1, b + m, -b - m} {
			if got, err := s.Lookup(p.PowGInt64(x)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%d-bit: Lookup(g^%d) = %d, %v; want ErrNotFound", bits, x, got, err)
			}
		}
	}
}

// TestLookupCostFollowsValue pins the cost model, not just the answer: a
// value in the centre window resolves with the shift multiply and one probe
// (no ladder step), any other in at most |x|/m + 1 rounds, and only a miss
// walks both ladders to the bound. A regression to a from-zero walk — where
// x = 0 costs bound/m rounds — fails here, not only in a benchmark.
func TestLookupCostFollowsValue(t *testing.T) {
	p, err := group.Embedded(group.PaperBits)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(p, 32_000_001) // the train_mlp solver
	if err != nil {
		t.Fatal(err)
	}
	mc := p.Mont()
	h := mc.Elem()
	rounds := func(x int64) (int, error) {
		p.PowGInt64Mont(h, x)
		got, r, err := s.lookupMont(h)
		if err == nil && got != x {
			t.Fatalf("lookupMont(g^%d) = %d", x, got)
		}
		return r, err
	}
	m, b := s.m, s.bound
	for _, x := range []int64{0, 1, -1, m/2 - 1, -(m / 2)} {
		if r, err := rounds(x); err != nil || r != 0 {
			t.Errorf("x = %d: %d rounds, %v; want 0 (centre window)", x, r, err)
		}
	}
	for _, x := range []int64{m, 3 * m, 16*m + 5, 1000 * m, b / 3, b / 2, b - 1, b} {
		for _, v := range []int64{x, -x} {
			r, err := rounds(v)
			if err != nil {
				t.Fatalf("x = %d: %v", v, err)
			}
			if limit := int(x/m) + 1; r < 1 || r > limit {
				t.Errorf("x = %d: %d rounds, want 1 ≤ rounds ≤ |x|/m + 1 = %d", v, r, limit)
			}
		}
	}
	for _, x := range []int64{b + 1, -b - 1} {
		r, err := rounds(x)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("x = %d: err = %v, want ErrNotFound", x, err)
		}
		if want := int((b + m/2) / m); r != want {
			t.Errorf("miss at x = %d: %d rounds, want %d (both ladders past the bound)", x, r, want)
		}
	}
}

// TestLookupMontDoesNotAllocate: at the paper's width both ladders live on
// the stack, so the per-cell loop of a batched decryption allocates nothing
// in the solver, for a centre-window value and a far one alike (a miss pays
// for its error value only).
func TestLookupMontDoesNotAllocate(t *testing.T) {
	p, err := group.Embedded(group.PaperBits)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(p, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	h := p.Mont().Elem()
	for _, x := range []int64{3, 90_000, -70_000} {
		p.PowGInt64Mont(h, x)
		if allocs := testing.AllocsPerRun(20, func() { _, _ = s.LookupMont(h) }); allocs != 0 {
			t.Errorf("LookupMont(g^%d): %v allocs per call, want 0", x, allocs)
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
	// 2·bound+1 must fit an int64: past that the range size overflowed, its
	// square root was NaN and the table allocation panicked under the core
	// lock. An error, and the cache still usable afterwards.
	p := group.TestParams()
	for _, bound := range []int64{math.MaxInt64, (math.MaxInt64-1)/2 + 1} {
		if _, err := NewSolver(p, bound); err == nil {
			t.Errorf("bound %d should fail", bound)
		}
	}
	if _, err := NewSolver(p, 10); err != nil {
		t.Errorf("solver after a rejected bound: %v", err)
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
	// The ladder positions that land exactly on g^0 — centre window, first
	// up-ladder round, first and second down-ladder round — plus values
	// that pass it on the way out.
	m, half := s.m, s.m/2
	for _, x := range []int64{-half, m - half, -m - half, -2*m - half, 0, 1, -1, 999, -1000, 1000} {
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
	// Every x whose ladder position is baby step 4: the centre window, then
	// two rounds out on the up-ladder and on the down-ladder.
	m, half := s.m, s.m/2
	for _, want := range []int64{4 - half, m + 4 - half, 2*m + 4 - half, -m + 4 - half, -2*m + 4 - half} {
		got, err := s.Lookup(p.PowGInt64(want))
		if err != nil {
			t.Fatalf("Lookup(g^%d) via spill: %v", want, err)
		}
		if got != want {
			t.Fatalf("Lookup via spill = %d, want %d", got, want)
		}
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

// BenchmarkLookup prints the cost curve of one look-up on the train_mlp
// solver (paper group, bound 32 000 001): flat for the near-zero values a
// training step produces, linear in |x|/m beyond, and the full two-ladder
// walk only for a miss.
func BenchmarkLookup(b *testing.B) {
	p, err := group.Embedded(group.PaperBits)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSolver(p, 32_000_001)
	if err != nil {
		b.Fatal(err)
	}
	m, bound := s.m, s.bound
	type point struct {
		name string
		x    int64
	}
	points := []point{{"x=0", 0}}
	for _, pt := range []point{{"m/2", m / 2}, {"16m", 16 * m}, {"B/2", bound / 2}, {"B", bound}} {
		points = append(points, point{"x=+" + pt.name, pt.x}, point{"x=-" + pt.name, -pt.x})
	}
	points = append(points, point{"miss", bound + 1})
	h := p.Mont().Elem()
	for _, pt := range points {
		b.Run(pt.name, func(b *testing.B) {
			p.PowGInt64Mont(h, pt.x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.LookupMont(h); (err != nil) != (pt.name == "miss") {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverBuild prices NewSolver at the paper group for the two
// bounds the benchmark's workloads build — train_mlp's 32 000 001 (8001 baby
// steps) and serve_topk's 4·10⁸ (28 285) — which is why solvers neither
// share nor persist their tables (doc.go quotes the medians).
func BenchmarkSolverBuild(b *testing.B) {
	p, err := group.Embedded(group.PaperBits)
	if err != nil {
		b.Fatal(err)
	}
	p.PowGInt64(1) // the generator tables belong to Params, not to a solver
	for _, bound := range []int64{32_000_001, 400_000_000} {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewSolver(p, bound); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLookupParallel drives one shared Solver from GOMAXPROCS
// goroutines — the paper's parallel decryption shape, on the small values a
// training step produces. Near-linear scaling here is what the lock-free
// table buys over a shared string-keyed map.
func BenchmarkLookupParallel(b *testing.B) {
	p := group.TestParams()
	s, err := NewSolver(p, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*big.Int, 16)
	for i := range queries {
		queries[i] = p.PowGInt64(int64(i-8) * 173)
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

// FuzzLookupRoundTrip: for any bound and any machine-integer exponent the
// solver answers x itself when |x| ≤ bound and ErrNotFound otherwise —
// never a wrong value, never a panic. The paper group's 256-bit order rules
// out an int64 exponent aliasing into the range. Each input is checked raw
// (almost always far outside) and folded onto [-(bound+1), bound+1], so the
// fuzzer works both sides of the bound; one Params for the whole run means
// most solvers ride a taller core left by an earlier input.
func FuzzLookupRoundTrip(f *testing.F) {
	p, err := group.Embedded(group.PaperBits)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(0), uint16(0))
	f.Add(int64(-1), uint16(1))
	f.Add(int64(41), uint16(40))
	f.Add(int64(-4097), uint16(4095))
	f.Add(int64(math.MinInt64), uint16(math.MaxUint16))
	f.Add(int64(math.MaxInt64), uint16(977))
	f.Fuzz(func(t *testing.T, x int64, boundSeed uint16) {
		bound := int64(boundSeed) + 1
		s, err := NewSolver(p, bound)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []int64{x, x % (bound + 2)} {
			got, err := s.Lookup(p.PowGInt64(v))
			if v >= -bound && v <= bound {
				if err != nil || got != v {
					t.Fatalf("bound %d: Lookup(g^%d) = %d, %v", bound, v, got, err)
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("bound %d: Lookup(g^%d) = %d, %v; want ErrNotFound", bound, v, got, err)
			}
		}
	})
}

// TestSolverOwnsItsTable: a solver's baby table is a function of its own
// bound and of nothing else in the process. Two solvers over one Params, in
// either build order, each hold exactly ⌈√(2·bound+1)⌉ baby steps; the
// second is built while the first is already answering look-ups (the two
// share Params' generator tables and Montgomery context, nothing else).
func TestSolverOwnsItsTable(t *testing.T) {
	for _, bounds := range [][2]int64{{10_000, 100}, {100, 10_000}} {
		params := group.TestParams()
		var wg sync.WaitGroup
		for _, bound := range bounds {
			s, err := NewSolver(params, bound)
			if err != nil {
				t.Fatal(err)
			}
			if want := int(math.Ceil(math.Sqrt(float64(2*bound + 1)))); s.TableSize() != want {
				t.Errorf("order %v: bound %d has %d baby steps, want ⌈√(2·bound+1)⌉ = %d", bounds, bound, s.TableSize(), want)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, x := range []int64{-bound, 0, bound} {
					if got, err := s.Lookup(params.PowGInt64(x)); err != nil || got != x {
						t.Errorf("bound %d: Lookup(g^%d) = %d, %v", bound, x, got, err)
					}
				}
				if _, err := s.Lookup(params.PowGInt64(bound + 1)); !errors.Is(err, ErrNotFound) {
					t.Errorf("bound %d: Lookup(g^%d) err = %v, want ErrNotFound", bound, bound+1, err)
				}
			}()
		}
		wg.Wait()
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
