package dlog

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"

	"cryptonn/internal/group"
)

// ErrNotFound reports that the discrete log of the queried element does not
// lie within the solver's bound. Callers typically treat it as a fixed-point
// overflow: the plaintext result grew beyond the configured range.
var ErrNotFound = errors.New("dlog: value outside search bound")

// lookupStackLimbs bounds the modulus width (in 64-bit limbs) for which
// Lookup's scratch lives on the stack; wider groups allocate one slice.
const lookupStackLimbs = 16

// Solver recovers x from g^x for x in [-Bound, Bound] using baby-step
// giant-step with a table of about sqrt(2*Bound+1) entries, scanned
// centre-out: a look-up costs about 2·|x|/m multiplications, so the bound
// sets the table's memory and the price of a miss, not the price of a hit
// (doc.go has the cost model).
type Solver struct {
	params *group.Params
	mont   *group.MontCtx
	bound  int64
	m      int64 // baby-step table size (the shared core's, ≥ √(2·bound+1))
	reach  int64 // last centre-out round: both ladders have passed ±bound after it
	steps  int64 // last round of the top-k scan over the shifted range [0, 2·bound]
	k      int   // limbs per element
	// elems[j*k : (j+1)*k] is g^j in Montgomery form: the exact-match
	// backing store for the hash table's 64-bit candidate keys. elems,
	// tab and giantM may be shared with other solvers of the same Params
	// (see coreFor); giantDownM and shiftM are per-solver.
	elems      []uint64
	tab        *babyTable
	giantM     []uint64 // g^{-m}, Montgomery form: one up-ladder step (towards larger x)
	giantDownM []uint64 // g^{+m}, Montgomery form: one down-ladder step (towards smaller x)
	shiftM     []uint64 // g^{Bound}, Montgomery form: the top-k scan's map of [-B, B] onto [0, 2B]
}

// solverCore is the bound-independent part of a solver: the baby-step
// elements, their hash table, and the matching giant step g^{-m}. A core
// built for m baby steps serves any solver needing ≤ m of them — the
// giant-step stride only has to match the table height, not the bound —
// so solvers over the same group share one core instead of each rebuilding
// identical tables.
type solverCore struct {
	m      int64
	elems  []uint64
	tab    *babyTable
	giantM []uint64
}

// maxCachedCores bounds the per-Params core cache. Production processes
// hold one or two groups, so the cap only matters for workloads that mint
// Params endlessly (test suites); past it the cache resets and tables are
// simply rebuilt on demand, keeping memory bounded.
const maxCachedCores = 64

var (
	coreMu sync.Mutex
	// cores caches the largest core built per Params. Keyed by pointer
	// identity: Params are long-lived, never copied once in use (their own
	// documented contract), and pointer keys keep independently created
	// groups — even with equal constants, as throughout the tests —
	// isolated from each other.
	cores = map[*group.Params]*solverCore{}
)

// coreFor returns a baby-step core for params with at least mNeed entries,
// building and caching it when no cached core is tall enough. Construction
// runs under the cache lock, so concurrent solver setup over one group
// builds the table exactly once.
func coreFor(params *group.Params, mc *group.MontCtx, mNeed int64) *solverCore {
	coreMu.Lock()
	defer coreMu.Unlock()
	if c := cores[params]; c != nil && c.m >= mNeed {
		return c
	}
	if len(cores) >= maxCachedCores {
		cores = map[*group.Params]*solverCore{}
	}
	k := mc.Limbs()
	c := &solverCore{
		m:   mNeed,
		tab: newBabyTable(mNeed),
	}
	// The baby steps and the giant-step element are a pure function of
	// (group, m), so a configured table cache restores them — elems and
	// giantM as one payload — and only the hash table (derived data: the
	// low limb of each element) is rebuilt, with zero group operations.
	tc := params.TableCache()
	shape := []int64{mNeed}
	want := int((mNeed + 1) * int64(k))
	if tc != nil {
		if payload, ok := tc.LoadLimbs(params, "dlogcore", nil, shape, want); ok {
			c.elems = payload[:mNeed*int64(k)]
			c.giantM = payload[mNeed*int64(k):]
			for j := int64(0); j < mNeed; j++ {
				c.tab.insert(c.elems[j*int64(k)], j)
			}
			cores[params] = c
			return c
		}
	}
	c.elems = make([]uint64, mNeed*int64(k))
	c.giantM = mc.Elem()
	gM := mc.Elem()
	mc.ToMont(gM, params.G)
	cur := mc.Elem()
	mc.SetOne(cur)
	for j := int64(0); j < mNeed; j++ {
		copy(c.elems[j*int64(k):], cur)
		c.tab.insert(cur[0], j)
		mc.MulMont(cur, cur, gM)
	}
	// cur is now g^m; its inverse is the giant step.
	mc.ToMont(c.giantM, params.Inv(mc.FromMont(cur)))
	if tc != nil {
		payload := make([]uint64, 0, want)
		payload = append(payload, c.elems...)
		payload = append(payload, c.giantM...)
		tc.StoreLimbs(params, "dlogcore", nil, shape, payload)
	}
	cores[params] = c
	return c
}

// maxBound is the largest bound whose shifted range size 2·bound+1 still
// fits an int64.
const maxBound = (math.MaxInt64 - 1) / 2

// NewSolver builds a solver for logs in [-bound, bound]. Table construction
// costs O(sqrt(bound)) group operations and memory — paid once per group:
// solvers over the same Params share one baby-step table, and a solver
// whose bound fits an already-built table reuses it outright. A look-up
// then costs about 2·|x|/m multiplications for a value x that is found and
// about 2·bound/m — O(sqrt(bound)) — for one that is not, so a bound with
// head-room costs table memory, not time.
func NewSolver(params *group.Params, bound int64) (*Solver, error) {
	if params == nil {
		return nil, errors.New("dlog: nil group parameters")
	}
	if bound <= 0 {
		return nil, fmt.Errorf("dlog: bound must be positive, got %d", bound)
	}
	if bound > maxBound {
		return nil, fmt.Errorf("dlog: bound %d exceeds the largest supported bound %d", bound, int64(maxBound))
	}
	n := 2*bound + 1 // size of the search range [-bound, bound]
	m := int64(math.Ceil(math.Sqrt(float64(n))))
	mc := params.Mont()
	core := coreFor(params, mc, m)
	m = core.m // a taller shared core sets the stride; every scan limit follows it
	k := mc.Limbs()
	s := &Solver{
		params: params,
		mont:   mc,
		bound:  bound,
		m:      m,
		// Round i of the up-ladder covers x ∈ [i·m − ⌊m/2⌋, (i+1)·m − ⌊m/2⌋),
		// round i of the down-ladder x ∈ [−i·m − ⌊m/2⌋, −(i−1)·m − ⌊m/2⌋): the
		// round whose up-window holds +bound is the last, because the
		// down-ladder reaches −bound in ⌈(bound − ⌊m/2⌋)/m⌉ rounds, never more.
		reach:      (bound + m/2) / m,
		steps:      (n + m - 1) / m,
		k:          k,
		elems:      core.elems,
		tab:        core.tab,
		giantM:     core.giantM,
		giantDownM: mc.Elem(),
		shiftM:     mc.Elem(),
	}
	// g^{+m} = g^{m−1}·g, both already in the table (m ≥ 2 for any bound).
	mc.MulMont(s.giantDownM, s.elems[(m-1)*int64(k):m*int64(k)], s.elems[k:2*k])
	mc.ToMont(s.shiftM, params.PowGInt64(bound)) // table-backed fixed-base power
	return s, nil
}

// Bound returns the solver's symmetric search bound.
func (s *Solver) Bound() int64 { return s.bound }

// TableSize returns the number of precomputed baby steps (diagnostics and
// benchmark reporting).
func (s *Solver) TableSize() int { return int(s.m) }

// Lookup returns x such that h = g^x and |x| <= Bound, or ErrNotFound.
//
// The scan works on stack-resident Montgomery limbs: one division-free
// multiplication and one hash probe per ladder step, no allocations. All
// scratch is call-local, so one Solver serves any number of concurrent
// goroutines.
func (s *Solver) Lookup(h *big.Int) (int64, error) {
	if h == nil {
		return 0, errors.New("dlog: nil element")
	}
	k := s.k
	var stack [lookupStackLimbs]uint64
	var gamma []uint64
	if k <= len(stack) {
		gamma = stack[:k]
	} else {
		gamma = make([]uint64, k)
	}
	s.mont.ToMont(gamma, h)
	x, _, err := s.lookupMont(gamma)
	return x, err
}

// LookupMont is Lookup for an element already in Montgomery form (a slice
// of group.MontCtx Limbs() length), as produced by the Montgomery-domain
// decryption pipelines — the query stays in-domain from ciphertext to
// table probe with no big.Int round trip. x is left unmodified.
func (s *Solver) LookupMont(x []uint64) (int64, error) {
	v, _, err := s.lookupMont(x)
	return v, err
}

// LookupMontRounds is LookupMont that also reports how many giant-step
// rounds the scan ran (0 when the value sat in the centre window), so a
// batched caller can total the work of a chunk into its own counters
// without the solver touching shared state per look-up. Like LookupMont it
// fails with ErrNotFound only.
func (s *Solver) LookupMontRounds(x []uint64) (v int64, rounds int, err error) {
	return s.lookupMont(x)
}

// lookupMont runs the centre-out scan on h (Montgomery form, k limbs, left
// unmodified) and reports the rounds it took.
//
// Both ladders start at h·g^⌊m/2⌋ = g^{x+⌊m/2⌋}, so round 0 is one probe
// covering x ∈ [−⌊m/2⌋, m−⌊m/2⌋). Round i ≥ 1 moves the up-ladder one g^{−m}
// (a hit at baby index j means x = i·m + j − ⌊m/2⌋) and the down-ladder one
// g^{+m} (x = −i·m + j − ⌊m/2⌋): the windows tile the integers outwards
// from the centre, so x resolves in round ≈ |x|/m whatever the bound is.
func (s *Solver) lookupMont(h []uint64) (int64, int, error) {
	k := s.k
	var stack [2 * lookupStackLimbs]uint64
	var up, down []uint64
	if k <= lookupStackLimbs {
		up, down = stack[:k], stack[k:2*k]
	} else {
		up, down = make([]uint64, k), make([]uint64, k)
	}
	half := s.m / 2
	s.mont.MulMont(up, h[:k], s.elems[half*int64(k):(half+1)*int64(k)])
	// An exact match whose x lands outside [-Bound, Bound] (the last
	// window of either ladder overhangs the bound) must NOT stop the scan:
	// keep probing, so a later in-range match is still found.
	if j := s.probe(up); j >= 0 {
		if x := j - half; x >= -s.bound && x <= s.bound {
			return x, 0, nil
		}
	}
	copy(down, up)
	for i := int64(1); i <= s.reach; i++ {
		s.mont.MulMont(up, up, s.giantM)
		if j := s.probe(up); j >= 0 {
			if x := i*s.m + j - half; x <= s.bound {
				return x, int(i), nil
			}
		}
		s.mont.MulMont(down, down, s.giantDownM)
		if j := s.probe(down); j >= 0 {
			if x := -i*s.m + j - half; x >= -s.bound {
				return x, int(i), nil
			}
		}
	}
	return 0, int(s.reach), fmt.Errorf("%w (bound %d)", ErrNotFound, s.bound)
}

// probe returns the index j of the baby step g^j equal to gamma, or −1.
// A 64-bit key hit is only a candidate: the full element is exact-matched,
// falling back to the spill list when the main-table entry under that key
// is a different element. Each scan maps the index to a value and
// range-checks it with its own offset.
func (s *Solver) probe(gamma []uint64) int64 {
	j := s.tab.find(gamma[0])
	if j < 0 {
		return -1
	}
	if equalElem(gamma, s.elems, j, s.k) {
		return j
	}
	for _, e := range s.tab.spill {
		if e.key == gamma[0] && equalElem(gamma, s.elems, e.j, s.k) {
			return e.j
		}
	}
	return -1
}

// equalElem reports whether gamma equals the j-th stored baby-step element.
func equalElem(gamma, elems []uint64, j int64, k int) bool {
	e := elems[j*int64(k) : j*int64(k)+int64(k)]
	for i := range gamma {
		if gamma[i] != e[i] {
			return false
		}
	}
	return true
}
