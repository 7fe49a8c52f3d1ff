package dlog

import (
	"errors"
	"fmt"
	"math"

	"cryptonn/internal/group"
)

// ErrNotFound reports that the discrete log of the queried element does not
// lie within the solver's bound. Callers typically treat it as a fixed-point
// overflow: the plaintext result grew beyond the configured range.
var ErrNotFound = errors.New("dlog: value outside search bound")

// lookupStackLimbs bounds the modulus width (in 64-bit limbs) for which
// a look-up's scratch lives on the stack; wider groups allocate it.
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
	m      int64 // baby-step table size, ⌈√(2·bound+1)⌉
	reach  int64 // last centre-out round: both ladders have passed ±bound after it
	steps  int64 // last round of the top-k scan over the shifted range [0, 2·bound]
	k      int   // limbs per element
	// elems[j*k : (j+1)*k] is g^j in Montgomery form: the exact-match
	// backing store for the hash table's 64-bit candidate keys.
	elems      []uint64
	tab        *babyTable
	giantM     []uint64 // g^{-m}, Montgomery form: one up-ladder step (towards larger x)
	giantDownM []uint64 // g^{+m}, Montgomery form: one down-ladder step (towards smaller x)
	shiftM     []uint64 // g^{Bound}, Montgomery form: the top-k scan's map of [-B, B] onto [0, 2B]
}

// maxBound is the largest bound whose shifted range size 2·bound+1 still
// fits an int64.
const maxBound = (math.MaxInt64 - 1) / 2

// NewSolver builds a solver for logs in [-bound, bound]. Table construction
// costs m = ⌈√(2·bound+1)⌉ group multiplications and as many entries of
// memory, paid by every solver for itself (milliseconds at the bounds this
// repository uses; doc.go has the readings). A look-up then costs about
// 2·|x|/m multiplications for a value x that is found and about 2·bound/m —
// O(sqrt(bound)) — for one that is not, so a bound with head-room costs
// table memory, not time.
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
		elems:      make([]uint64, m*int64(k)),
		tab:        newBabyTable(m),
		giantM:     mc.Elem(),
		giantDownM: mc.Elem(),
		shiftM:     mc.Elem(),
	}
	gM := mc.Elem()
	mc.ToMont(gM, params.G)
	cur := s.giantDownM
	mc.SetOne(cur)
	for j := int64(0); j < m; j++ {
		copy(s.elems[j*int64(k):], cur)
		s.tab.insert(cur[0], j)
		mc.MulMont(cur, cur, gM)
	}
	// cur, the down-ladder step, is now g^m; its inverse is the up-ladder's.
	mc.ToMont(s.giantM, params.Inv(mc.FromMont(cur)))
	mc.ToMont(s.shiftM, params.PowGInt64(bound)) // table-backed fixed-base power
	return s, nil
}

// Bound returns the solver's symmetric search bound.
func (s *Solver) Bound() int64 { return s.bound }

// TableSize returns the number of precomputed baby steps (diagnostics and
// benchmark reporting).
func (s *Solver) TableSize() int { return int(s.m) }

// LookupMont returns v such that x = g^v and |v| <= Bound, or ErrNotFound,
// for an element in Montgomery form (a slice of group.MontCtx Limbs()
// length), as produced by the Montgomery-domain decryption pipelines: the
// query stays in-domain from ciphertext to table probe with no big.Int
// round trip. x is left unmodified.
//
// The scan works on stack-resident Montgomery limbs: one division-free
// multiplication and one hash probe per ladder step, no allocations. All
// scratch is call-local, so one Solver serves any number of concurrent
// goroutines.
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
