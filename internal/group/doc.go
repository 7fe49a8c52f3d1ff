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
//	long-lived: g, FEIP h_i,  full-width         FixedBaseComb (comb.go), persisted
//	FEBO/ElGamal h            (nonces, shares)   through the table cache
//	the generator g           machine integer    dense slab of g^x, |x| ≤ DenseDefault;
//	                          (plaintexts)       a miss falls through to g's comb
//	seen once: ct_0 of one    a few full-width   EphemeralTable (fixedbase.go):
//	FEIP ciphertext           function keys      signed windows, sign-split result
//	variable, no table        any                MontCtx ladders; Straus for products
//
// Exported surface, by regime:
//
//   - Group: Params {Validate, Bits, Exp, Mul, Div, Inv, IsElement,
//     ReduceScalar, InvScalar, RandScalar, Clone, String}; Embedded,
//     EmbeddedSizes, TestParams, Generate; TestBits, PaperBits,
//     MinModulusBits; ErrInvalidParams, ErrNotInGroup.
//   - Generator: Params.{PowG, PowGInt64, PowGMont, PowGInt64Mont};
//     DenseDefault.
//   - Long-lived bases: Params.{NewFixedBaseComb, NewFixedBaseCombs,
//     ScalarLimbs}; FixedBaseComb.{PowMont, PowMontLimbs, Gather,
//     PowMontGathered}.
//   - Bases seen once: Params.{NewEphemeralTable, RecodeSigned};
//     EphemeralTable.PowRecoded.
//   - Variable bases: MontCtx.{ExpMont, ExpMontScratch, ExpMontUint64};
//     Params.{MultiExp, MultiExpInt64, MultiExpInt64MontParts,
//     MultiExpInt64SparseMontParts} (multiexp.go).
//   - Montgomery arithmetic: Params.Mont, NewMontCtx; MontCtx.{Limbs, Elem,
//     SetOne, ToMont, FromMont, MulMont, SquareMont, BatchInvMont};
//     ErrNotInvertible.
//   - Precompute cache (tablecache.go, docs/TABLE_CACHE.md): OpenTableCache,
//     SetTableCache, Params.TableCache; TableCache.{Dir, Stats, LoadLimbs,
//     StoreLimbs}; TableCacheStats.
//
// conformance_test.go runs every one of these paths over one shared
// exponent set at 64, 256 and 512 bits and requires the element Exp returns.
//
// # Concurrency contract
//
// Tables are immutable once built, results are freshly allocated, and the
// lazy per-Params generator precomputation and Montgomery context are built
// exactly once — Params is safe for concurrent use, exactly like
// dlog.Solver. Scratch slabs threaded through calls (ExpMontScratch, the
// MontParts scratch) are single-goroutine and owned by the calling worker.
package group
