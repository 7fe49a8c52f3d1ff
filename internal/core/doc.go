// Package core implements the CryptoNN framework (the paper's primary
// contribution, Algorithm 2): training a neural network over functionally
// encrypted data.
//
// Per training iteration the framework inserts two secure computations
// into an otherwise ordinary training step:
//
//   - secure feed-forward: the first layer's W·X (dense) or convolution
//     (Algorithm 3) is evaluated over the encrypted inputs via the secure
//     matrix computation scheme — the server obtains the plaintext
//     pre-activations without ever seeing the plaintext X (what the
//     decrypted values determine about X is below);
//   - secure back-propagation / evaluation: the output-layer computation
//     involving the encrypted label Y, the gradient P − Y, is evaluated
//     over ciphertexts by element-wise subtraction under FEBO.
//
// Everything in between — the hidden layers, the optimizer — is the
// untouched plaintext machinery of internal/nn, which is precisely the
// paper's point: CryptoNN adapts to any model whose boundary computations
// reduce to the permitted function set F.
//
// One gap in the paper is filled explicitly here: the first layer's weight
// gradient dW = dZ·Xᵀ also involves the encrypted X, and Algorithm 2 never
// says how the server computes it. We realize it with the same FEIP
// machinery over a second, row-oriented encryption of X (each row is one
// feature across the batch; securemat.Engine.SecureDotRows), so training
// never holds plaintext inputs.
//
// It does not leave them undetermined. Each step derives one gradient key
// per hidden unit, a vector of dimension η = batch, and a function key
// decrypts every ciphertext of its dimension, not only the batch it was
// derived for. Once the keys pooled over the whole run span that dimension
// — hidden × steps ≥ batch over the run, not per batch — the server solves
// for every row of any training batch of that size, unseen ones included.
// At train_mlp's shape (196-8-10, batch 8) the first step suffices, at the
// paper's (784-32-10, batch 64) the second; TestGradientKeysDecryptAnUnseenBatch
// pins both steps and recovers every fixed-point value of an unseen batch,
// all 50 176 at the paper's shape. The paper's assumption that the
// function values, and all they span, are safe to reveal is implicit.
//
// The labels are not hidden from the server: it computed P itself, so
// decrypting Y − P gives it each batch's labels Y on every step, up to the
// LabelMap permutation when clients mask them.
//
// The cross-entropy loss −(1/m)Σ_j ⟨y_j, log p_j⟩ needs no secure step of
// its own. The paper (§III-E2) evaluates it under FEIP over column-encrypted
// labels; the trainer adds the decrypted Y − P to P's encoding, which is
// Y's encoding exactly, and gets the same value bit for bit. That reveals
// nothing new, since both inputs are already the server's, so the labels
// travel as FEBO elements only and no key of the label dimension is derived.
//
// Every weight-like operand meets the engine through one transform,
// ClampEncode: the first layer's weights (dense or convolutional), dZ
// before the gradient product, and the service's top-k head. For Predict
// the trainer keeps the dense first layer's encoded W and its function
// keys beside a copy of the W they encode, and re-encodes and re-derives
// only when W's contents differ, an exact comparison of microseconds
// against a product of milliseconds. Serving a fixed W therefore encodes
// it and derives its keys once, and an in-place edit of W is seen by the
// next prediction. The trainer is the one holder of that state: the engine
// keeps nothing per weight matrix. A training step changes W, so it
// encodes W and derives its keys once per step and keeps nothing.
//
// Division of roles follows Fig. 1: clients produce EncryptedBatch values
// (EncryptBatch / EncryptConvBatch) and hold the LabelMap; the server runs
// the Trainer. Both sides produce and evaluate ciphertexts, and reach the
// authority, only through a securemat.Engine session wrapping a
// securemat.KeyService: the dense layer's forward is Engine.DotKeys then
// SecureDot, the convolution's (Algorithm 3 is Algorithm 1 over im2col
// windows) Engine.Dot, both gradients SecureDotRows and P − Y one
// Engine.Elementwise call, all with batched key requests. Where the time
// under those calls goes is internal/group's package comment.
package core
