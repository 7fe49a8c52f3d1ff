// Package thresh implements the threshold-cryptography core of the
// authority cluster: Shamir secret sharing over the group's scalar field
// Z_Q, a Feldman-committed distributed key generation, and (batched)
// Chaum–Pedersen discrete-log-equality proofs.
//
// # Role in the architecture
//
// The paper's trusted authority holds every FEIP/FEBO master secret in one
// process. The cluster refactor splits each master scalar s into N Shamir
// shares s^(1..N) of a degree T−1 polynomial, so any T nodes can derive
// function keys while T−1 nodes learn nothing. Both functional-encryption
// schemes are linear in their master secrets, which is what makes partial
// key derivation work share-wise:
//
//   - FEIP: sk_f = ⟨y, s⟩ mod Q. Node j returns k_j = ⟨y, s^(j)⟩ and any T
//     partials interpolate at x = 0: sk_f = Σ λ_j·k_j mod Q (Lambda).
//   - FEBO: sk_f is cmt^{s·e} for an op-dependent public exponent e. Node j
//     returns P_j = cmt^{s^(j)} and the combined cmt^s = Π P_j^{λ_j}; the
//     op transform (·g^{∓y}, ^y, ^{y⁻¹}) is applied to the combined value.
//
// # Combining group elements
//
// λ_j = Π_{m≠j} x_m / Π_{m≠j} (x_m − x_j) is a fraction of small integers,
// so CombineElementsBatch never reduces it mod Q. It writes every λ_j as an
// integer numerator n_j over one common reduced denominator D and computes
//
//	cmt^s = (Π_j P_j^{n_j})^{D⁻¹ mod Q}
//
// which equals Π P_j^{λ_j} for partials of the order-Q subgroup. The
// product costs a few multiplications per value: the factors with n_j < 0
// go into a second product, and the second products of a whole batch share
// one BatchInvMont. The D⁻¹ exponentiation is paid only when D ≠ 1. When
// the answers come from nodes {1, …, T}, in any order, λ_j is the integer
// (−1)^{j−1}·C(T, j) — (3, −3, 1) for T = 3 — and D = 1; the quorum {2, 4, 5}
// of a 3-of-5 cluster has (10, −15, 8)/3. BenchmarkCombineElementsBatch
// prices both at 80 values.
//
// # Trust model of RunDKG
//
// Deal is the message-level Feldman DKG: each participant deals a random
// polynomial and commits to its coefficients in the exponent, so every
// sub-share is checkable against those commitments and the joint secret
// Σ f_d(0) exists only as a sum no single dealer knows.
// RunDKG executes that protocol inside one process (the provisioning
// ceremony and the in-process test cluster); the dealerless structure is
// preserved — no code path ever materializes Σ f_d(0) — but a ceremony
// host is necessarily trusted at setup time.
//
// # Verifying partial keys
//
// Every partial can be checked against its own node. FEIP partials are
// scalars, so node j's partial k_j = ⟨y, s^(j)⟩ verifies against its public
// share vector h^(j)_i = g^{s^(j)_i}, which RunDKG already computes
// (DKGResult.PubShares, one per coordinate): g^{k_j} == Π (h^(j)_i)^{y_i}.
// The combined key verifies the same way against the joint public key,
// g^{sk_f} == Π h_i^{y_i}, so the quorum client checks the first T
// partials together with one such identity and falls back to the per-node
// form only when it fails, to find and drop the node that lied. FEBO
// partials are group elements and either check would be a DDH instance,
// so nodes attach a Chaum–Pedersen proof (ProveEqBatch) that
// log_g A_j = log_cmt P_j for their published share commitment
// A_j = g^{s^(j)}; a corrupted partial is rejected before it can poison the
// combination. Batches are folded into
// one proof with a Fiat–Shamir random linear combination. The prover folds
// only the bases, B = Π cmt_i^{e_i}: its folded output Π P_i^{e_i} is
// B^{s^(j)}, one exponentiation. The verifier folds both sides, checks that
// every partial is a group element — P − P_i would fold like P_i under an
// even coefficient — and accepts only canonical scalars in [0, Q).
// BenchmarkProveEqBatch and BenchmarkVerifyEqBatch price one step's
// 80-element batch at the paper's 256 bits.
//
// All functions are pure and safe for concurrent use; randomness defaults
// to crypto/rand when the supplied reader is nil.
package thresh
