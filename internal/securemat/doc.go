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
// and stays in the Montgomery domain end to end: numerators come off one
// multi-exponentiation over every row of W per run of ciphertexts on one
// support as raw limb elements, FEIP denominators off one
// group.EphemeralExps.PowRecoded per run of ciphertexts that meet one key
// slice, each
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
// product — a one-column product runs on one core — and on group's lane
// kernel a run of eight columns on one support and key slice is, so a
// dense product of up to eight columns runs on one core too (below);
// SparseDotKeys keeps sparseKeysInFlight requests of a support
// outstanding. Results are the same
// bit for bit at every worker count, and so is the error: the lowest failing
// cell is the one reported.
//
// # Where a secure step's time goes
//
// The numerators of a run of columns on one support are one call:
// evalColumns hands the ciphertexts' carried coordinates, their support and
// the whole weight matrix to group.MultiExpInt64RowsMontParts, which
// converts and tabulates each coordinate once and multiplies it into every
// row of W that weights it. Their denominators are one call per run of
// columns too: the key slice, recoded once per worker by
// group.Params.RecodeSigned, raises the ct_0 of every column of the run
// that shares it to every key in one group.EphemeralExps.PowRecoded: a
// squaring chain per ct_0 shared by the keys, so a ciphertext builds no
// table, however few keys meet it. On CPUs with AVX-512 IFMA both calls
// take eight ciphertexts in lockstep on group's lane kernel: the ct_0s
// share the recoded keys, and the columns on one support share every
// weight digit. A call is worth as many columns as its chunk holds, so
// where the lane kernel serves the group (group.MontCtx.Lanes) and every
// column of a product shares one support and one key slice, as every dense
// entry point's do, evalColumns cuts the product into whole runs of eight
// columns (columnsPerChunk). The MLP forward's 8 columns (train_mlp's
// batch) and a coalesced serving round of 2–8 requests (serve_dense's
// 784-32-10 first layer) are then one chunk and one lane call per phase;
// chunkSize's 16-cell floor over 8 and 32 rows cut them into chunks of two
// columns and of one, which left the MLP forward on two lanes and
// serve_dense on the scalar kernel. The other runs are the conv forward's
// chunks of windows under the filter keys, the conv gradient's 9 position
// rows per sample (8 + 1), and the MLP gradient's chunks of feature rows
// under the hidden units' keys. A lone column takes the scalar kernel, and
// so does each of serve_topk's: every column carries its own support and
// keys, so its products keep chunkSize's chunks, which spread the columns
// over the workers (rounding them up to eight would pile them onto one).
// Without the lane kernel (other CPUs, the 64- and 512-bit groups) every
// product keeps chunkSize's chunks.
//
// CPU profiles of core's BenchmarkTrainStep (train_mlp's 196→8→10 MLP at
// batch 8, train_cnn's conv net of 2 filters on 14×14 images at batch 3;
// 256-bit group, in-process authority, -cpu 1 and -cpu 2), taken while
// the MLP forward's chunks still held two columns, with both phases on the
// lanes, and in the "one column at a time" rows the code before the
// numerators took them, whose denominators alone ran on the lanes;
// wall times are medians of five alternating runs, shares are of the
// profiled process's CPU time, one box (2 vCPUs, AVX-512 IFMA), one
// session:
//
//	                                  MLP                    CNN
//	                                  one core   two cores   one core   two cores
//	step (wall)                       6.2 ms     8.5 ms      6.5 ms     7.2 ms
//	  one column at a time            8.8 ms     9.6 ms      9.8 ms     10.8 ms
//	allocations per step              1.0 k      1.1 k       0.7 k      0.8 k
//	  one column at a time            1.0 k      1.1 k       0.7 k      0.8 k
//	bytes allocated per step          211 kB     218 kB      248 kB     255 kB
//	  one column at a time            211 kB     218 kB      249 kB     256 kB
//	numerators (multi-exponentiation) 27 %       22 %        17 %       17 %
//	  one column at a time            42 %       43 %        41 %       40 %
//	denominators                      20 %       26 %        28 %       26 %
//	  one column at a time            17 %       16 %        18 %       19 %
//	FEBO keys at the authority        25 %       16 %        9 %        6 %
//	  one column at a time            18 %       10 %        5 %        3 %
//	everything else¹                  28 %       36 %        46 %       51 %
//	  one column at a time            23 %       31 %        36 %       38 %
//
// ¹ Look-ups, inversions, plaintext layers, scheduling, GC and the
// profiled run's set-up encryption of its eight batches.
//
// The lanes take the numerators from two fifths of the CPU to a sixth of a
// CNN step's and a quarter of an MLP step's, and the steps from 8.8–9.8 ms
// to 6.2–6.5 ms on one core; no phase is now much larger than the others.
// The MLP kept more because its forward ran two columns to a lane call,
// where two lanes gain 1.2–1.7× against eight lanes' 4–7× (group/doc.go).
// In whole runs of eight the forward is one chunk, and an MLP step reads
// 4.44 → 3.76 ms on one core and 2.81 → 2.36 ms on two (medians of five
// alternating runs of 100 steps against the two-column chunks, same box,
// another session). serve_dense's coalesced rounds gain more, because
// their columns went from one lane to up to eight: a 784 × 32 product of
// eight columns is 4.4 ms on the lanes against 20.4 ms on the scalar body
// (BenchmarkSecureDotStage), and the server's evaluation of a round 4.68 →
// 2.69 ms at the same mean width of 3.5 requests (one traced 20 s run
// each). The evaluator's scratch, lane tables and slots included, lasts
// from product to product, so the lanes cost no allocation. In the
// profiled session a neighbour's load held the box's second vCPU: two
// cores read slower than one, and only the columns of one table compare.
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
// points pass that slice explicitly (group.Identity, one read-only slice
// shared with feip and group): the shared bodies never ask which caller
// they serve. There is no shorthand for it — an empty support is
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
//     Engine.{Dot, Elementwise, DotTopK}; ComputeOptions; ErrShape. The
//     element-wise methods take a febo.Op; ElementwiseSub = febo.OpSub
//     survives for benchmark/ only.
//   - Observability: Engine.{DotKeyCacheStats, SparseStats, DlogStats,
//     WriteMetrics}; SparseStats, DlogStats.
//   - Helpers: Shape.
package securemat
