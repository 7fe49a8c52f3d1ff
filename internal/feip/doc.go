// Package feip implements functional encryption for inner products — the
// scheme behind Algorithm 1's dot-product arm: every column (and, in the
// dual orientation, row) of a pre-processed matrix is one FEIP
// ciphertext, and a secure W·X recovers one inner product per output
// cell.
//
// This is the DDH-based scheme of Abdalla, Bourse, De Caro and Pointcheval,
// "Simple Functional Encryption Schemes for Inner Products" (PKC 2015),
// exactly as restated in §II-B of the CryptoNN paper:
//
//	Setup(1^λ, 1^η):  s = (s_1..s_η) ←$ Z_q^η,  mpk = (g, h_i = g^{s_i}),  msk = s
//	KeyDerive(msk, y): sk_f = ⟨y, s⟩ mod q
//	Encrypt(mpk, x):  r ←$ Z_q,  ct_0 = g^r,  ct_i = h_i^r · g^{x_i}
//	Decrypt:          g^{⟨x,y⟩} = Π ct_i^{y_i} / ct_0^{sk_f}
//
// The final discrete log g^{⟨x,y⟩} → ⟨x,y⟩ is recovered with a bounded
// baby-step giant-step solver from internal/dlog. Plaintext coordinates are
// signed int64 (fixed-point-encoded reals in the CryptoNN workload); they
// are reduced into Z_q for the exponent arithmetic and the signed result is
// recovered as long as |⟨x,y⟩| stays within the solver bound.
//
// # Session and concurrency contract
//
// Keys and ciphertexts are immutable once created and safe to share
// across goroutines. A MasterPublicKey lazily carries one Lim–Lee comb per
// h_i (group.FixedBaseComb): Precompute builds them exactly once
// (idempotent, guarded), and every Encrypt afterwards runs on the shared
// read-only fast path — the securemat encryption pipeline calls it before
// fanning workers out. EncryptScratch (used via EncryptSparseWithScratch) is
// the opposite: one goroutine at a time, pooled by the session layer to
// keep per-column ciphertext slabs off the heap.
//
// # One body per operation
//
// Encrypt, KeyDerive and Decrypt each have one body, written in coordinate
// form — over a support idx and the values (or ciphertext coordinates) that
// pair off with it — and the exported dense and …Sparse functions are
// argument checks in front of it. A dense vector is the case idx = [0, η),
// which the dense wrappers pass explicitly. Nothing is shorthand for it: an
// empty support is a legitimate input (the all-zero vector, whose ciphertext
// is ct_0 alone and whose key is 0), so it can never also mean "every
// coordinate".
//
// Decrypt is the big.Int reference implementation tests and the benchmark's
// atoms compare against. The batched Montgomery-domain evaluation every
// library caller uses lives in internal/securemat.
package feip
