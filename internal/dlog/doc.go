// Package dlog recovers bounded discrete logarithms in the CryptoNN group
// — the final step of every secure computation in Algorithm 1.
//
// Both FEIP and FEBO decryption end with a group element of the form
// g^z where z is a "small" signed integer — an inner product or an
// element-wise arithmetic result over fixed-point-encoded data. The paper
// (§II-B) points at Shanks' baby-step giant-step algorithm (and Terr's
// variant [26]) for this final step; this package implements a signed,
// bounded baby-step giant-step solver with a precomputed, reusable
// baby-step table so the expensive part is paid once per (group, bound)
// pair rather than once per decryption.
//
// The solver's hot loop is specialized two ways beyond the textbook
// algorithm. All group arithmetic runs in the Montgomery domain
// (group.MontCtx), so each giant step is a division-free limb
// multiplication instead of a big.Int Mul + QuoRem. And the baby-step
// table is a custom open-addressing hash table keyed on the low 64 bits
// of the Montgomery representation (table.go), so a probe touches two
// flat arrays instead of marshalling key bytes into a string map. Every
// key hit is verified against the full element limbs, with collisions
// falling back to an exact-match spill list, so lookups stay exact.
//
// # Session and concurrency contract
//
// A Solver is safe for concurrent use after construction, which is what
// makes the paper's parallelized secure-computation curves (Fig. 3d, 4d,
// 5d) possible: many goroutines share one table, lock-free. Solvers over
// the same *group.Params share one baby-step core: a bound that fits an
// already-built table reuses it (built once under a lock), so a serving
// session can size solvers per workload — the training bound, the
// feed-forward-only prediction bound — without duplicating tables.
// Lookup allocates nothing in the steady state; LookupMont accepts raw
// Montgomery limbs from the batched decryption pipelines.
//
// # Exported surface
//
// NewSolver; Solver.{Bound, TableSize, Lookup, LookupMont, TopKMontBounded}
// — one scalar entry point per input form, one top-k scan (topk.go), whose
// ceiling is Bound() when the caller has nothing tighter; TopKHit,
// TopKStats; ErrNotFound.
package dlog
