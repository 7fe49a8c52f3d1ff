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
// giant-step with a table of about sqrt(2*Bound+1) entries.
type Solver struct {
	params *group.Params
	mont   *group.MontCtx
	bound  int64
	m      int64 // baby-step table size
	steps  int64 // number of giant steps
	k      int   // limbs per element
	// elems[j*k : (j+1)*k] is g^j in Montgomery form: the exact-match
	// backing store for the hash table's 64-bit candidate keys. elems,
	// tab and giantM may be shared with other solvers of the same Params
	// (see coreFor); shiftM is per-solver.
	elems  []uint64
	tab    *babyTable
	giantM []uint64 // g^{-m}, Montgomery form
	shiftM []uint64 // g^{Bound}, Montgomery form: maps [-B, B] onto [0, 2B]
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

// NewSolver builds a solver for logs in [-bound, bound]. Table construction
// costs O(sqrt(bound)) group operations and memory — paid once per group:
// solvers over the same Params share one baby-step table, and a solver
// whose bound fits an already-built table reuses it outright. Subsequent
// lookups cost O(sqrt(bound)) multiplications in the worst case.
func NewSolver(params *group.Params, bound int64) (*Solver, error) {
	if params == nil {
		return nil, errors.New("dlog: nil group parameters")
	}
	if bound <= 0 {
		return nil, fmt.Errorf("dlog: bound must be positive, got %d", bound)
	}
	n := 2*bound + 1 // size of the shifted search range [0, 2*bound]
	m := int64(math.Ceil(math.Sqrt(float64(n))))
	mc := params.Mont()
	core := coreFor(params, mc, m)
	s := &Solver{
		params: params,
		mont:   mc,
		bound:  bound,
		m:      core.m,
		steps:  (n + core.m - 1) / core.m,
		k:      mc.Limbs(),
		elems:  core.elems,
		tab:    core.tab,
		giantM: core.giantM,
		shiftM: mc.Elem(),
	}
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
// The giant-step loop works on stack-resident Montgomery limbs: one
// division-free multiplication and one hash probe per step, no
// allocations. All scratch is call-local, so one Solver serves any number
// of concurrent goroutines.
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
	return s.lookupMont(gamma)
}

// LookupMont is Lookup for an element already in Montgomery form (a slice
// of group.MontCtx Limbs() length), as produced by the Montgomery-domain
// decryption pipelines — the query stays in-domain from ciphertext to
// table probe with no big.Int round trip. x is left unmodified.
func (s *Solver) LookupMont(x []uint64) (int64, error) {
	k := s.k
	var stack [lookupStackLimbs]uint64
	var gamma []uint64
	if k <= len(stack) {
		gamma = stack[:k]
	} else {
		gamma = make([]uint64, k)
	}
	copy(gamma, x[:k])
	return s.lookupMont(gamma)
}

// lookupMont runs the giant-step scan on gamma (Montgomery form),
// overwriting it.
func (s *Solver) lookupMont(gamma []uint64) (int64, error) {
	k := s.k
	// Shift the signed range onto [0, 2*bound]: h' = h * g^bound = g^{x+bound}.
	s.mont.MulMont(gamma, gamma, s.shiftM)
	for i := int64(0); i <= s.steps; i++ {
		if j := s.tab.find(gamma[0]); j >= 0 {
			// A 64-bit key hit is only a candidate: exact-match the full
			// element, falling back to the spill list on collision. A
			// candidate whose x lands outside [-Bound, Bound] (the final
			// giant step can match a shifted value just past 2*Bound) must
			// NOT stop the scan — keep probing instead of breaking, so a
			// later exact match is still found.
			if equalElem(gamma, s.elems, j, k) {
				if x := i*s.m + j - s.bound; x >= -s.bound && x <= s.bound {
					return x, nil
				}
			} else {
				for _, e := range s.tab.spill {
					if e.key == gamma[0] && equalElem(gamma, s.elems, e.j, k) {
						if x := i*s.m + e.j - s.bound; x >= -s.bound && x <= s.bound {
							return x, nil
						}
						break
					}
				}
			}
		}
		s.mont.MulMont(gamma, gamma, s.giantM)
	}
	return 0, fmt.Errorf("%w (bound %d)", ErrNotFound, s.bound)
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
