// Package securemat implements the paper's secure matrix computation
// scheme (Algorithm 1): matrix dot-products and element-wise arithmetic
// over functionally encrypted matrices.
//
// The central type is Engine, a session object for the protocol's three
// long-lived roles (Fig. 1):
//
//   - the client builds an Engine over its key-service connection and
//     pre-processes plaintext matrices into EncryptedMatrix values
//     (Engine.Encrypt): every column is encrypted under FEIP for
//     dot-products and every element under FEBO for element-wise
//     arithmetic, on pooled per-worker ciphertext slabs;
//   - the server's Engine obtains function-derived keys from the authority
//     (Engine.DotKeys, Engine.ElementwiseKeys) — the dot-product keys of
//     the last weight matrix are remembered, so serving predictions with a
//     fixed W derives its keys exactly once;
//   - the server then evaluates the permitted function over ciphertexts
//     (Engine.SecureDot, Engine.SecureDotRows, Engine.SecureElementwise,
//     or the key-folding conveniences Dot/Elementwise), obtaining a
//     plaintext result matrix.
//
// # Session and concurrency contract
//
// An Engine resolves public keys once per dimension, carries the shared
// bounded discrete-log solver (NewEngine builds a session without one;
// WithSolver derives a view with a solver over the same caches), and is
// safe for concurrent use by any number of goroutines. Methods hand out
// pointers into the session caches (public keys, cached function keys);
// callers must treat them as read-only, exactly as with values received
// from a KeyService.
//
// Decryption is the expensive step (one bounded discrete log per output
// element); as in the paper (§III-C), every Secure* method drains output
// cells on a chunked worker pipeline — the "P" curves of Fig. 3d/4d/5d —
// and stays in the Montgomery domain end to end: a column's numerators come
// off one multi-exponentiation over every row of W as raw limb elements,
// FEIP denominators off one group.EphemeralExps.PowRecoded per run of
// ciphertexts that meet one key slice, each
// chunk's denominators share one batched modular inversion (Montgomery's
// trick), and the quotients feed the dlog solver directly. The look-ups are counted per
// run of cells (Engine.DlogStats): how many, how many giant-step rounds,
// and how many values fell outside the solver bound — the loud form of a
// fixed-point overflow.
//
// Workers follow one control, GOMAXPROCS: encryption, evaluation, an
// in-process authority's FEBO key batches and group's comb builds all run
// on every core the Go runtime may use (par.Workers(0)), so GOMAXPROCS=1 is
// the one-core reading. ComputeOptions.Parallelism is the one per-call
// exception: it bounds an evaluation's workers, and Fig. 3–5's sequential
// panel sets it to 1. A ciphertext column is the unit of work of a
// product — a one-column product runs on one core; SparseDotKeys keeps
// sparseKeysInFlight requests of a support outstanding. Results are the same
// bit for bit at every worker count, and so is the error: the lowest failing
// cell is the one reported.
//
// # Where a secure step's time goes
//
// A column's numerators are one call: evalColumns hands the ciphertext's
// carried coordinates, their support and the whole weight matrix to
// group.MultiExpInt64RowsMontParts, which converts and tabulates each
// coordinate once and multiplies it into every row of W that weights it.
// Its denominators are one call per run of columns: the key slice, recoded
// once per worker by group.Params.RecodeSigned, raises the ct_0 of every
// column of the run that shares it to every key in one
// group.EphemeralExps.PowRecoded: a squaring chain per ct_0 shared by the
// keys, so a ciphertext builds no table, however few keys meet it, and on
// CPUs with AVX-512 IFMA eight ct_0s run that chain and its bucket products
// in lockstep on group's lane kernel. The runs are the conv forward's
// chunks of windows under the filter keys, and the MLP gradient's chunks of
// feature rows under the hidden units' keys; a lone column (serve_dense's
// one-column chunks, serve_topk's per-support keys) takes the scalar body.
// CPU profiles of core's BenchmarkTrainStep (train_mlp's 196→8→10 MLP at
// batch 8, train_cnn's conv net of 2 filters on 14×14 images at batch 3;
// 256-bit group, in-process authority, -cpu 1 and -cpu 2) with the lane
// kernel, and in the "one ct_0 at a time" rows the code before it, whose
// every ct_0 ran the scalar body; wall times are medians of five
// alternating runs, shares
// are of the profiled process's CPU time, one box (2 vCPUs, AVX-512 IFMA),
// one session:
//
//	                                  MLP                    CNN
//	                                  one core   two cores   one core   two cores
//	step (wall)                       7.8 ms     4.7 ms      8.9 ms     5.8 ms
//	  one ct_0 at a time              12.1 ms    8.1 ms      16.0 ms    11.0 ms
//	allocations per step              1.0 k      1.1 k       0.7 k      0.8 k
//	  one ct_0 at a time              1.1 k      1.2 k       0.7 k      0.9 k
//	bytes allocated per step          210 kB     216 kB      249 kB     254 kB
//	  one ct_0 at a time              286 kB     353 kB      365 kB     451 kB
//	denominators                      14 %       18 %        19 %       22 %
//	  one ct_0 at a time              47 %       50 %        49 %       51 %
//	numerators (multi-exponentiation) 43 %       39 %        41 %       37 %
//	  one ct_0 at a time              26 %       23 %        24 %       21 %
//	FEBO keys at the authority        18 %       10 %        6 %        4 %
//	  one ct_0 at a time              10 %       5 %         3 %        1 %
//	everything else¹                  24 %       33 %        35 %       37 %
//	  one ct_0 at a time              18 %       22 %        24 %       27 %
//
// ¹ Look-ups, inversions, plaintext layers, scheduling, GC and the
// profiled run's set-up encryption of its eight batches.
//
// The lanes take the denominators from half the CPU to a fifth; the
// numerators, still one scalar product at a time, are now the largest
// phase of both steps. The evaluator's scratch, its 80 KB lane chain
// included, lasts from product to product, so a step allocates less than
// it did before the lanes. The shared squaring chain is two thirds of a
// two-key ciphertext's multiplications and a third of an eight-key one's,
// which is why the CNN gained the most: every one of its 196 windows per sample is a
// ciphertext of its own, met by just the 2 filter keys. What keeps the
// second core from 2× is what stays on one goroutine between the parallel
// loops — the plaintext layers, encoding, the key requests' framing — and
// the join that ends each loop. (The box's speed moves by a fifth from one
// hour to the next: only the columns of one table compare.)
//
// One deliberate extension over the paper's Algorithm 1: Encrypt can also
// encrypt the matrix row-wise (dual orientation). The paper's Algorithm 2
// needs the first-layer weight gradient dW = dZ·Xᵀ during back-propagation
// but never spells out how to compute it when X is encrypted; inner
// products against rows of X (feature vectors across the batch) make it
// expressible in the very same FEIP machinery (core.Trainer uses it for
// exactly that step).
//
// # Dot-products are not composed from element-wise products
//
// §III-C keeps the secure dot-product as its own function although FEBO
// multiplication plus a plaintext sum also computes W·X, "due to
// efficiency considerations". The consideration is the key count: the
// dot path derives one FEIP key per row of W, the composition one FEBO key
// per (row, inner, column) product, each bound to one element's
// commitment — rows keys against rows·inner·cols. The last measurement
// (a deleted ablation, 4×16 weights against a 16×8 batch at 64 bits):
// 4 against 512 keys, and the dot path 13.5× faster end to end.
//
// # One FEIP body; dense is the identity support
//
// Inner-product ciphertexts have one representation underneath: a column
// is ct_0, the coordinates it carries, the support — which coordinate of
// the plaintext vector each one encrypts — and the keys it decrypts under.
// A sparse ciphertext carries its Idx. A dense one carries every
// coordinate, so its support is the identity [0, η), and the dense entry
// points pass that slice explicitly: the shared bodies never ask which
// caller they serve. There is no shorthand for it — an empty support is
// an all-zero vector, whose every inner product is 0 under the key of the
// empty sum, so "no support" cannot also mean "every coordinate".
//
// SecureDot, SecureDotRows, SecureDotSparse and SecureDotTopK are
// therefore four shape checks in front of one validation (checkColumns:
// counts, nil entries, supports strictly increasing inside [0, η), one
// non-empty key per row of W per column — anything else is ErrShape
// before any arithmetic, never a panic on a worker goroutine), one
// evaluator (evalColumns, batch.go) and a sink: solveCells for the three
// full products, dlog.TopKMontBounded for the top-k head. Encrypt and
// EncryptSparse likewise share one encryption loop (encryptVectors): the
// density router carries a column above DefaultSparseThreshold on the
// identity support and any other on its non-zero coordinates, and the
// dense Encrypt is the routing in which every column is above the
// threshold. The exported names stay apart because benchmark/ compiles
// against them.
//
// # Exported surface
//
//   - Session: NewEngine, EngineOptions, Engine.{WithSolver, Solver, Keys,
//     FEIPPublic, FEBOPublic}; KeyService, BatchKeyService,
//     SparseKeyService; ErrNoSolver.
//   - Encrypt: Engine.{Encrypt, EncryptSparse}; EncryptOptions,
//     EncryptedMatrix, SparseEncryptedMatrix; DefaultSparseThreshold.
//   - Keys: Engine.{DotKeys, DotKeysUncached, ElementwiseKeys,
//     SparseDotKeys}.
//   - Compute, keys explicit: Engine.{SecureDot, SecureDotRows,
//     SecureElementwise, SecureDotSparse, SecureDotTopK}; keys folded in:
//     Engine.{Dot, Elementwise, DotTopK}; ComputeOptions; Function and its
//     five values; ErrShape, ErrFunction.
//   - Observability: Engine.{DotKeyCacheStats, SparseStats, DlogStats,
//     WriteMetrics}; SparseStats, DlogStats.
//   - Helpers: Shape.
package securemat
