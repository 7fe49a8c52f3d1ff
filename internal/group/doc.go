// Package group implements the prime-order DDH group underlying both
// functional encryption schemes used by CryptoNN (FEIP and FEBO) — every
// exponentiation Algorithm 1 performs, on either side of the protocol,
// bottoms out here.
//
// The concrete instantiation is a Schnorr group: the subgroup of prime
// order Q of the multiplicative group Z*_P, where P = 2Q + 1 is a safe
// prime. The DDH assumption is believed to hold in this subgroup, which is
// exactly the setting required by Abdalla et al.'s inner-product scheme
// (PKC 2015) and by the paper's FEBO construction (§III-B). Exponents are
// reduced modulo Q, and negative exponents are supported throughout
// (weights and activations are signed fixed-point integers). Only the
// standard library is used.
//
// # One exponentiation engine per regime
//
// Elements on the fast paths are Montgomery-domain limb slices (MontCtx),
// so a multiplication is a division-free CIOS product. Each kind of base
// has exactly one engine, and Params hides which:
//
//	base                      exponent           engine
//	long-lived: g, FEIP h_i,  full-width         FixedBaseComb (comb.go), derived by
//	FEBO h                    (nonces, shares)   the key or Params that owns it
//	the generator g           machine integer    dense slab of g^x, |x| ≤ DenseDefault;
//	                          (plaintexts)       a miss falls through to g's comb
//	seen once: ct_0 of one    full-width         EphemeralExps (ephemeral.go): one
//	FEIP ciphertext; the      function keys,     squaring chain shared by every
//	commitments of a FEBO     one per row of W;  exponent's NAF digits, sign-split
//	key batch                 the FEBO secret    result; one body, powRun, over
//	                          or a node's share  either element kernel
//	variable: the carried     machine integers,  multiExpRows (multiexp.go): one table
//	coordinates of FEIP       many rows (the     of odd powers per base for every row,
//	ciphertexts on one        weight matrix)     width-w non-adjacent digits read off
//	support                                      the uint64 magnitude, sign-split
//	                                             result; one body, rowsRun, over
//	                                             either element kernel
//	variable, no table        any                MontCtx ladders: ExpMont slides a
//	                                             window of up to 5 bits over odd
//	                                             powers; Straus (MultiExp) for
//	                                             products over full-width exponents,
//	                                             one body, strausRun, over either
//	                                             element kernel; both read digits
//	                                             off the exponent's words (limbDigit)
//
// Exported surface, by regime:
//
//   - Group: Params {Validate, Bits, Exp, Mul, Div, Inv, IsElement,
//     ReduceScalar, RandScalar, String}; Embedded,
//     EmbeddedSizes, TestParams, Generate; TestBits, PaperBits,
//     MinModulusBits; ErrInvalidParams, ErrNotInGroup.
//   - Generator: Params.{PowG, PowGInt64, PowGMont, PowGInt64Mont};
//     DenseDefault.
//   - Long-lived bases: Params.{NewFixedBaseComb, NewFixedBaseCombs,
//     ScalarLimbs}; FixedBaseComb.{PowMont, PowMontLimbs, Gather,
//     PowMontGathered}.
//   - Bases seen once: Params.RecodeSigned; EphemeralExps.PowRecoded.
//   - Variable bases: MontCtx.{ExpMont, ExpMontScratch};
//     Params.MultiExp for big.Int exponents; for machine integers
//     Params.MultiExpInt64RowsMontParts and its one-row forms
//     Params.{MultiExpInt64MontParts, MultiExpInt64SparseMontParts}, and
//     Identity, the one shared read-only dense support (multiexp.go).
//   - Montgomery arithmetic: Params.Mont, NewMontCtx; MontCtx.{Limbs, Elem,
//     SetOne, ToMont, FromMont, MulMont, BatchInvMont};
//     ErrNotInvertible.
//
// conformance_test.go runs every one of these paths over one shared
// exponent set at 64, 256 and 512 bits and requires the element Exp returns
// (and, of IsElement, the answer big.Int.Exp gives).
//
// ephemeral.go quotes the BenchmarkEphemeralWindow sweep that chose the
// engine for a base seen once over the window table it replaced. The
// many-rows window is a rule, not a constant: rowsWindow minimises a
// base's multiplications — table plus digits in every row — from the two
// things the call observes about it, the bit length of its tallest odd
// exponent part and the number of rows; multiexp.go quotes the
// BenchmarkMultiExpRows sweep it is checked against. Its memory is two slots
// per row per bit of the tallest exponent, whatever the number of bases.
//
// # Membership
//
// P = 2Q+1 (Validate enforces it), so the order-Q subgroup has index 2 in
// Z*_P and is exactly the quadratic residues mod P: by Euler's criterion
// a^Q = a^{(P−1)/2} ≡ (a | P). IsElement therefore computes the Legendre
// symbol, as a Jacobi symbol by the binary algorithm on the element's limbs
// (jacobi.go): subtractions and shifts on a working length that shrinks as
// the top limbs empty, then one machine word — no exponentiation, no
// Montgomery form, no allocation, one path for every width. Since
// P ≡ 3 mod 4, −1 is a non-residue and every non-zero non-member is −1
// times a member. Params whose P ≠ 2Q+1, possible only as an unvalidated
// literal, contain no element; that fact is computed once, beside the
// Montgomery context. BenchmarkIsElement, 64 distinct inputs, half of them
// non-residues, a^Q ladder → Legendre symbol (2-vCPU reference box, three
// runs each, interleaved):
//
//	bits = 64      0.95–1.48 µs → 0.16–0.18 µs
//	bits = 256     10.6–12.3 µs → 2.1–2.7 µs
//	bits = 512     207–274 µs   → 5.8–8.2 µs
//
// The check runs on every key-plane element: each FEBO commitment at the
// authority and at every cluster node, each partial key at the quorum
// client, each h_i of a fetched public key. Together with the one-fold
// DLEQ prover (package thresh), keys_quorum read 1 063 → 1 611 samples/s,
// medians of ten alternating 20 s pairs, the change ahead in all ten.
//
// # Kernel
//
// Nearly all of this package's time, and of every workload built on it, is
// one 4-limb Montgomery product at the paper's 256 bits. On amd64, MulMont
// runs it in assembly (mont_amd64.s): CIOS rounds whose MULX products are
// absorbed by two independent carry chains, ADOX for the low halves and
// ADCX for the high halves, and a branch-free final subtraction. CPUID
// (leaf 7, EBX bits 8 and 19: BMI2 and ADX) selects it once, when the
// package is initialised; every other CPU and architecture runs the
// unrolled Go mulMont4. That body and the generic k-limb loop are the
// oracles the assembly is pinned to (TestMulMont4MatchesGeneric,
// FuzzMulMont4), and the conformance table runs a second time with the
// assembly deselected. There is no squaring kernel: a square is
// MulMont(a, a, a); the deleted squareMont4 read 33.4 ns against the Go
// product's 31.0 and never paid. The shared squaring chain of a base seen
// once is about two thirds of its multiplications at two exponents (train_cnn)
// and a third at eight (train_mlp).
//
// Both engines for FEIP decryption and Straus' MultiExp have one body each,
// written once over an element kernel (lanes.go) that is a type parameter
// of the body: the chain, the buckets, the digit slots, the folds and the
// Straus ladder exist once. The scalar
// kernel holds one value of k limbs per element and multiplies with
// MulMont. The lane kernel serves many ciphertexts at a time
// (lanes_amd64.s): eight 256-bit Montgomery products per call, one per
// 64-bit lane of a ZMM register, on five 52-bit limbs with
// VPMADD52LUQ/VPMADD52HUQ and lazy reduction below 2p (4p < 2^260). It is
// selected once, at initialisation, when CPUID leaf 7 reports AVX512F (EBX
// bit 16) and AVX512_IFMA (bit 21), and OSXSAVE plus XGETBV show the OS
// saving the opmask and ZMM state (XCR0 & 0xE6); the 64- and 512-bit
// groups and every other CPU never use it. PowRecoded hands it each run of
// up to eight bases when the run holds two or more, and
// MultiExpInt64RowsMontParts each run of up to eight columns on its one
// support: the bases share the recoded digits and the columns every weight
// digit, so the lanes never diverge, and each base or coordinate is
// converted in once and each result half out once, canonical and limb for
// limb what the scalar kernel gives. A lone base or column runs on the
// scalar kernel, which stays the oracle: FuzzMulMontLanes pins the lane
// product to MulMont, FuzzMultiExpRowsLanes the numerators on the lanes to
// the scalar kernel, the conformance table runs every call shape with the
// lanes on and off at 256 bits, and TestKernelSelection logs which kernels
// a run selected (lane-only tests skip with the reason). The rule's
// evidence for the denominators is BenchmarkEphemeralWindow's bases=m rows,
// µs per base with the set's inversion and folding multiplications (-cpu 1,
// median of 5, 2-vCPU box with IFMA; a run of one base takes the scalar
// kernel either way, so its two readings are noise apart, and the per-call
// inversion spreads over more bases as m grows):
//
//	bases                      1      2      8      16
//	2 exponents   scalar       20.3   15.8   16.1   12.5
//	              lanes        23.1   11.9   3.4    2.8
//	8 exponents   scalar       34.0   28.5   26.7   27.2
//	              lanes        38.3   18.6   5.8    7.2
//
// Two bases already gain 1.3–1.5×, eight 4.6–4.7×. End to end, ten
// alternating 20 s pairs read train_cnn 353 → 666 samples/s (medians; the
// lanes ahead in all ten, 1.36–1.95× a pair, median 1.80×) and three read
// train_mlp 1 228 → 1 796; serve_dense, serve_topk and keys_quorum, which
// then kept the scalar body, stayed flat.
//
// For the numerators it is BenchmarkMultiExpRows' cols=m rows: µs per
// column of m in one call on one identity support, at the shapes securemat
// hands it (-cpu 1, median of 5, same box in a slower hour: the 8 × 8 and
// 784 × 32 scalar columns read 1.3–1.5× their figures in multiexp.go's
// window sweep):
//
//	coordinates × rows, ±mag          cols    1      2      4      8
//	9 × 2, ±47 (conv forward)         scalar  5.22   4.96   5.32   4.88
//	                                  lanes   5.28   4.13   1.94   1.15
//	196 × 2, ±65535 (conv gradient)   scalar  154    149    141    131
//	                                  lanes   153    116    54.3   26.9
//	8 × 8, ±65535 (MLP gradient)      scalar  27.4   28.7   30.9   27.6
//	                                  lanes   24.8   19.9   10.8   5.25
//	784 × 32, ±8 (paper forward)      scalar  2013   1961   1646   1921
//	                                  lanes   1857   1189   586    285
//
// Two columns gain 1.2–1.7×, eight 4.2–6.7×; one column is the scalar
// kernel either way. End to end, ten alternating 20 s pairs read train_cnn 567 →
// 823 samples/s (medians; the lanes ahead in all ten, 1.20–1.65× a pair,
// median 1.39×) and three read train_mlp 1 100 → 1 366; serve_dense and
// keys_quorum (six pairs each) and serve_topk (two), whose numerators then
// kept the scalar body, stayed flat. securemat/doc.go has the step profile.
//
// MultiExp stripes its bases across the lanes: lane l accumulates bases l,
// l+8, l+16 and so on, every run of eight has its table of powers built by
// lane products, the eight accumulators share one squaring per bit, and at
// each window every lane multiplies in the entry of its own digit, gathered
// from its run's table (a zero digit picks 1). The lanes are then stored
// and multiplied together. A product of fewer than strausLaneMin bases
// keeps the scalar kernel, as a lone base does in PowRecoded: below it the
// gathers and the final products cost more than the shared squarings save.
// multiexp.go quotes BenchmarkMultiExp's kernel sweep beside the constant;
// FuzzMultiExpLanes pins the lane body to the scalar one and to Π Exp, and
// the conformance table runs MultiExp with the lanes on and off. The key
// plane's DLEQ folds (80 and more bases under 128-bit coefficients) and the
// quorum's joint FEIP check (η bases at full width) run on the lanes; the
// combination of a value from three partials does not.
//
// A call is worth as many columns or bases as its caller hands it at once.
// securemat cuts a product whose columns share one support and one key
// slice into chunks of whole runs of eight where MontCtx.Lanes holds, so
// serve_dense's coalesced rounds of 2–8 requests (784 × 32, one column a
// chunk before) and train_mlp's forward (8 × 8, two columns a chunk) fill
// the lanes. Ten alternating 20 s pairs, five at seed 1 and five at seed 2,
// read serve_dense 1 029 → 1 833 samples/s (medians; ahead in all ten,
// 1.66–1.86× a pair, median 1.76×), and five read train_mlp 2 675 → 3 113
// (1.11–1.19× a pair). serve_topk, whose columns each carry their own
// support and keys and keep one column a call, read 104.5 → 106.7 (five
// pairs), train_cnn 1 095 → 1 125 (five) and keys_quorum 2 294 → 2 267
// (ten), flat.
//
// BenchmarkMulMont4, ns per product, Go body → assembly (2-vCPU reference
// box, medians of interleaved runs; the box moves these by ±15 %):
//
//	same operands every call                 28 → 20
//	dependent chain, dst = dst·x             29 → 24
//	independent, 64 distinct operand pairs   28 → 25
//
// End to end, ten alternating 20 s pairs against the Go mulMont4 and
// squareMont4 read
// train_mlp 657 → 960 samples/s and serve_dense 687 → 937, the change ahead
// in every pair; train_cnn, keys_quorum and serve_topk gained 1.58×, 1.44×
// and 1.17× over four pairs each, with rss and traffic flat and set-up
// faster.
//
// # Nothing is persisted
//
// Every table is built in memory by the object that owns it — the
// generator's comb and dense slab by Params on first use, a key's combs by
// that key on its first encryption — and no file, flag or package variable
// stands in front of the build. BenchmarkPrecompute is why (paper group,
// median of 5, 2-vCPU reference box; neighbours' load moves these by up to
// 2×):
//
//	generator comb + dense slab            0.33 ms  once per Params
//	per-key combs, η = 196 (train_mlp)     3.5 ms   once per key, by whoever
//	per-key combs, η = 784 (serve_dense)   14.9 ms  encrypts under it (clients;
//	per-key combs, η = 10000 (serve_topk)  179 ms   servers never build them)
//
// Reading the same limbs back from a checksummed file (the table cache this
// package carried until PR 19, same session, same box) took 0.36 ms for the
// generator and 2.5 / 10.2 / 90 ms for the key combs: nothing saved on the
// server side, where the only flag for it was, against a file format and a
// trusted-input surface to maintain.
//
// # Concurrency contract
//
// Tables are immutable once built, results are freshly allocated, and the
// lazy per-Params generator precomputation and Montgomery context are built
// exactly once — Params is safe for concurrent use, exactly like
// dlog.Solver. Scratch slabs threaded through calls (ExpMontScratch, the
// MontParts scratch) are single-goroutine and owned by the calling worker.
package group
