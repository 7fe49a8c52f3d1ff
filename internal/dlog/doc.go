// Package dlog recovers bounded discrete logarithms in the CryptoNN group
// — the final step of every secure computation in Algorithm 1.
//
// Both FEIP and FEBO decryption end with a group element of the form
// g^z where z is a "small" signed integer — an inner product or an
// element-wise arithmetic result over fixed-point-encoded data. The paper
// (§II-B) points at Shanks' baby-step giant-step algorithm (and Terr's
// variant [26]) for this final step; this package implements a signed,
// bounded baby-step giant-step solver with a precomputed baby-step table,
// so the expensive part is paid once per solver rather than once per
// decryption.
//
// # The scan: centre-out, cost ≈ 2·|x|/m
//
// The baby table holds g^j for j ∈ [0, m), m = ⌈√(2·Bound+1)⌉. A look-up of
// h = g^x starts both of its ladders at h·g^⌊m/2⌋ (one multiplication by a
// table entry), so round 0 is a single probe covering the centre window
// x ∈ [−⌊m/2⌋, m−⌊m/2⌋). Round i ≥ 1 moves an up-ladder by g^{−m} and a
// down-ladder by g^{+m} and probes each: the windows tile the integers
// outwards from zero, alternating sign, until both ladders have passed
// ±Bound. A value that is found therefore costs about 2·|x|/m
// multiplications — nothing to do with the bound — and only a value that
// is not there costs the full 2·Bound/m ≈ √(2·Bound). The secure results
// this repository decrypts are inner products of fixed-point operands
// that are mostly small against a bound sized for the worst case, which is
// the whole point: measured on the benchmark's 20 s runs at the paper
// group, look-ups took 0.76 rounds on average on train_mlp (815 k
// look-ups, bound 32 000 001, m = 8001), 0.71 on train_cnn and 0.85 on
// serve_dense — under two multiplications each, where a scan that walks
// up from −Bound pays Bound/m ≈ 4000 for the same values.
//
// Two decisions follow from that cost model and are deliberate:
//
//   - m stays at ⌈√(2·Bound+1)⌉. It is the size that keeps a miss at
//     O(√Bound); a taller table would buy nothing the workloads can feel
//     (they already resolve in round 0–1) and a shorter one would save
//     only part of 8001 entries ≈ 0.8 MB and a 0.6 ms build.
//   - There is no per-call or per-layer bound. A bound with head-room
//     costs √Bound table entries and nothing per look-up, so forward and
//     gradient evaluations share one generously sized solver instead of
//     threading a tighter bound through every Dot.
//
// A third follows from what the table costs to derive. Every solver builds
// its own, in memory, in NewSolver: nothing is shared between solvers and
// nothing is written to disk, so m is a function of the solver's bound and
// of nothing else in the process. BenchmarkSolverBuild, paper group, median
// of 5 on the 2-vCPU reference box:
//
//	bound        m       NewSolver   built by
//	32 000 001   8001    0.62 ms  train_mlp's trainer
//	400 000 000  28 285  2.4 ms   serve_topk's serving engine
//
// against a set-up of 110 ms and more (setup_s); a registry or a cache
// file in front of that would save less than its own bookkeeping risks.
//
// The hot loop is specialized two ways beyond the textbook algorithm. All
// group arithmetic runs in the Montgomery domain (group.MontCtx), so each
// ladder step is a division-free limb multiplication instead of a big.Int
// Mul + QuoRem, on two stack-resident elements. And the baby-step table is
// a custom open-addressing hash table keyed on the low 64 bits of the
// Montgomery representation (table.go), so a probe touches two flat arrays
// instead of marshalling key bytes into a string map. Every key hit is
// verified against the full element limbs, with collisions falling back to
// an exact-match spill list, so lookups stay exact; the scalar scan and the
// top-k scan share that probe and differ only in how they map a baby index
// to a value.
//
// # Session and concurrency contract
//
// A Solver is safe for concurrent use after construction, which is what
// makes the paper's parallelized secure-computation curves (Fig. 3d, 4d,
// 5d) possible: many goroutines share one solver's table, lock-free. The
// package holds no state of its own: a process that wants one table for
// two uses passes one *Solver to both (service.Server's one core.Trainer
// does, for Predict and PredictTopK).
// Lookup allocates nothing in the steady state; LookupMont accepts raw
// Montgomery limbs from the batched decryption pipelines.
//
// # Exported surface
//
// NewSolver; Solver.{Bound, TableSize, Lookup, LookupMont, LookupMontRounds,
// TopKMontBounded} — one scalar entry point per input form
// (LookupMontRounds is LookupMont plus the round count, for callers that
// total a batch's work into their own counters), one top-k scan (topk.go),
// whose ceiling is Bound() when the caller has nothing tighter; TopKHit,
// TopKStats; ErrNotFound.
package dlog
