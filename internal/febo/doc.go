// Package febo implements the paper's functional encryption scheme for
// basic arithmetic operations (§III-B): FEBO = (Setup, KeyDerive, Encrypt,
// Decrypt) for f_Δ(x, y) = x Δ y with Δ ∈ {+, −, ×, ÷}. It is the
// element-wise arm of Algorithm 1: every matrix element is one FEBO
// ciphertext, and a secure X Δ Y recovers one basic operation per cell.
//
// The construction is derived from ElGamal encryption:
//
//	Setup:      s ←$ Z_q, msk = s, mpk = (g, h = g^s)
//	Encrypt:    r ←$ Z_q, cmt = g^r, ct = h^r · g^x
//	KeyDerive:  sk_{f_Δ} =  cmt^s·g^{−y}   (Δ = +)
//	                        cmt^s·g^{y}    (Δ = −)
//	                        (cmt^s)^y      (Δ = ×)
//	                        (cmt^s)^{y⁻¹}  (Δ = ÷)
//	Decrypt:    g^{x Δ y} = ct/sk  |  ct^y/sk  |  ct^{y⁻¹}/sk
//
// Every row of this table is one exponent pair (m, a): the key is
// cmt^{s·m}·g^a and decryption is ct^m / key, with (1, −y) for +, (1, y)
// for −, (y, 0) for × and (y⁻¹ mod q, 0) for ÷. The unexported exponents
// function is the table's one home: KeyDerive and CompleteKey share one
// body over it, DecryptPartsMont (and Decrypt, one cell of it) reads it,
// and CheckOperands runs it alone, so the single authority and a threshold
// node refuse a ÷ without an inverse (y a multiple of q) through the same
// rule before any exponentiation. Op.Apply stays apart as the plaintext
// reference the tests compare against.
//
// Note the per-ciphertext commitment: unlike FEIP, the function key is
// bound to one specific ciphertext via cmt = g^r, so the authority issues
// one key per (ciphertext, op, y) triple. That design choice is faithful to
// the paper and is exactly why the paper's Fig. 3b/4b key-derivation curves
// grow linearly with matrix size — and why the wire protocol batches
// whole matrices of FEBO key requests into single frames.
//
// Division recovers x·y⁻¹ in the exponent ring Z_q, which equals the
// integer quotient only when y divides x exactly; otherwise Decrypt reports
// the solver's ErrNotFound.
//
// # Session and concurrency contract
//
// Keys and ciphertexts are immutable once created and safe to share
// across goroutines. PublicKey.Precompute builds the h fixed-base table
// exactly once (idempotent, guarded); callers that fan encryption out
// call it first, as with feip. DecryptPartsMont returns the in-domain
// numerator/denominator halves of a decryption so the securemat cell
// pipeline can fold each chunk's denominators into one batched inversion;
// the DecryptScratch it takes (the ladder's table for
// group.MontCtx.ExpMontScratch and the exponent's words) is
// single-goroutine and owned by the calling worker.
//
// KeyDerive has a secret half (cmt^s) and a public half (the op and y).
// CompleteKey is the public half on its own: a threshold client applies it
// to the cmt^s it combined from partials, and the tests pin it to KeyDerive
// for every op at the int64 boundaries.
package febo
