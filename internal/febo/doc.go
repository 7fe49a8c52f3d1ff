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
// function is the table's one home: CompleteKey (and KeyDerive through
// it) and DecryptPartsMont (and Decrypt, one cell of it) read it, and
// CheckOperands runs it alone, so the single authority and a threshold
// node refuse a ÷ without an inverse (y a multiple of q) through the same
// rule before any exponentiation. Op.Apply stays apart as the plaintext
// reference the tests compare against.
//
// A key has a secret half, cmt^s, and a public half: raising that to m and
// multiplying in g^a. RaiseCommitments is the secret half of a batch under
// one exponent, eight commitments at a time on group's lane kernel; the
// single authority runs it under s, a threshold node under its share.
// CompleteKey is the public half, which the single authority applies to
// its cmt^s and a threshold client to the cmt^s it combined from partials.
// KeyDerive is a batch of one.
//
// # What a key reveals
//
// Every key reveals the plaintext to a requester who knows y. Knowing y
// gives m and a, so the key gives cmt^s (unless m = 0, a × 0 key), and
// ct / cmt^s = g^x. The requester chooses y, so a key for x Δ y gives x
// itself, not only x Δ y. In a threshold cluster the combining client
// holds cmt^s itself, before any op is applied: it combines the nodes'
// partials cmt^{s_j} into cmt^s and then calls CompleteKey.
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
package febo
