package core

import (
	"errors"
	"fmt"

	"cryptonn/internal/feip"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

// Client is the data-owner side of Fig. 1: it holds the fixed-point codec,
// the label map and a secure compute session (public keys only — clients
// never decrypt, so the engine needs no solver) and produces encrypted
// batches for the server.
type Client struct {
	Engine *securemat.Engine
	Codec  *fixedpoint.Codec
	Labels *LabelMap
}

// NewClient assembles a client; a nil codec selects the paper's
// two-decimal default and a nil label map selects identity masking.
func NewClient(engine *securemat.Engine, codec *fixedpoint.Codec, labels *LabelMap) (*Client, error) {
	if engine == nil {
		return nil, errors.New("core: nil engine")
	}
	if codec == nil {
		codec = fixedpoint.Default()
	}
	return &Client{Engine: engine, Codec: codec, Labels: labels}, nil
}

// EncryptedBatch is one training batch as the server receives it: inputs
// encrypted column- and row-wise under FEIP (forward dot and gradient
// dot), labels element-wise under FEBO (for P − Y, from which the trainer
// also takes the loss).
type EncryptedBatch struct {
	// X holds the encrypted input matrix (features × batch).
	X *securemat.EncryptedMatrix
	// Y holds the encrypted one-hot label matrix (classes × batch),
	// already label-mapped, FEBO elements only; nil in a prediction request.
	Y *securemat.EncryptedMatrix
	// Features, Classes and N record the plaintext dimensions.
	Features, Classes, N int
}

// EncryptBatch encrypts a (features × batch) input matrix and a
// (classes × batch) one-hot label matrix for dense-first-layer training.
//
// The input is encrypted in both orientations — columns for the forward
// W·X, rows for the gradient dZ·Xᵀ the paper leaves unspecified (see the
// package comment) — but without FEBO element ciphertexts (only
// dot-products touch X).
func (c *Client) EncryptBatch(x, y *tensor.Dense) (*EncryptedBatch, error) {
	if x.Cols != y.Cols {
		return nil, fmt.Errorf("core: %d samples but %d label columns", x.Cols, y.Cols)
	}
	xi, err := c.Codec.EncodeMat(x.Rows2D())
	if err != nil {
		return nil, fmt.Errorf("core: encoding inputs: %w", err)
	}
	encX, err := c.Engine.Encrypt(xi, securemat.EncryptOptions{SkipElems: true, WithRows: true})
	if err != nil {
		return nil, fmt.Errorf("core: encrypting inputs: %w", err)
	}
	encY, err := c.encryptLabels(y)
	if err != nil {
		return nil, err
	}
	return &EncryptedBatch{
		X: encX, Y: encY,
		Features: x.Rows, Classes: y.Rows, N: x.Cols,
	}, nil
}

// EncryptPredictBatch encrypts a (features × batch) input matrix for FE
// prediction (§III-D): columns only, the one orientation Trainer.Predict
// reads. The batch has no labels (Y is nil) and no row or element
// ciphertexts, so a request is the forward product's ciphertexts and
// nothing else. classes records the server-side label dimension the client
// expects.
func (c *Client) EncryptPredictBatch(x *tensor.Dense, classes int) (*EncryptedBatch, error) {
	if classes <= 0 {
		return nil, fmt.Errorf("core: class count must be positive, got %d", classes)
	}
	xi, err := c.Codec.EncodeMat(x.Rows2D())
	if err != nil {
		return nil, fmt.Errorf("core: encoding inputs: %w", err)
	}
	encX, err := c.Engine.Encrypt(xi, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		return nil, fmt.Errorf("core: encrypting inputs: %w", err)
	}
	return &EncryptedBatch{X: encX, Features: x.Rows, Classes: classes, N: x.Cols}, nil
}

// SparseBatch is one prediction batch in coordinate form, the shape the
// extreme multi-label serving path moves: each sample column carries only
// its non-zero coordinates (feip.SparseCiphertext), and the server answers
// with per-sample top-k (label, value) pairs instead of a full logit row.
type SparseBatch struct {
	// X holds the sparse encrypted input matrix (features × batch).
	X *securemat.SparseEncryptedMatrix
	// Features, Classes and N record the plaintext dimensions.
	Features, Classes, N int
}

// EncryptSparseBatch encrypts a (features × batch) input matrix in
// coordinate form for top-k prediction serving. The density router applies
// per column (securemat.DefaultSparseThreshold), so accidentally dense
// columns are promoted to full width rather than shipped as a giant
// coordinate list. classes records the server-side label dimension the
// client expects (used by geometry-compatible coalescing).
func (c *Client) EncryptSparseBatch(x *tensor.Dense, classes int) (*SparseBatch, error) {
	if classes <= 0 {
		return nil, fmt.Errorf("core: class count must be positive, got %d", classes)
	}
	xi, err := c.Codec.EncodeMat(x.Rows2D())
	if err != nil {
		return nil, fmt.Errorf("core: encoding inputs: %w", err)
	}
	encX, err := c.Engine.EncryptSparse(xi, securemat.EncryptOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: sparse-encrypting inputs: %w", err)
	}
	return &SparseBatch{X: encX, Features: x.Rows, Classes: classes, N: x.Cols}, nil
}

// encryptLabels label-maps a one-hot label matrix and encrypts it
// element-wise, the one form of Y the trainer reads (P − Y).
func (c *Client) encryptLabels(y *tensor.Dense) (*securemat.EncryptedMatrix, error) {
	yMasked, err := c.maskOneHot(y)
	if err != nil {
		return nil, err
	}
	yi, err := c.Codec.EncodeMat(yMasked.Rows2D())
	if err != nil {
		return nil, fmt.Errorf("core: encoding labels: %w", err)
	}
	encY, err := c.Engine.EncryptElems(yi)
	if err != nil {
		return nil, fmt.Errorf("core: encrypting labels: %w", err)
	}
	return encY, nil
}

// maskOneHot permutes the rows of a one-hot label matrix by the label map.
func (c *Client) maskOneHot(y *tensor.Dense) (*tensor.Dense, error) {
	if c.Labels == nil {
		return y, nil
	}
	if c.Labels.Classes() != y.Rows {
		return nil, fmt.Errorf("core: label map over %d classes, labels have %d rows", c.Labels.Classes(), y.Rows)
	}
	out := tensor.NewDense(y.Rows, y.Cols)
	for i := 0; i < y.Rows; i++ {
		masked, err := c.Labels.Apply(i)
		if err != nil {
			return nil, err
		}
		for j := 0; j < y.Cols; j++ {
			out.Set(masked, j, y.At(i, j))
		}
	}
	return out, nil
}

// EncryptedConvBatch is one training batch for a convolutional first
// layer, pre-processed per Algorithm 3: for every sample, the im2col
// window matrix is encrypted column-wise (one FEIP ciphertext per sliding
// window, for the forward convolution) and row-wise (one ciphertext per
// kernel position, for the filter gradient).
type EncryptedConvBatch struct {
	// Windows[s][w] encrypts window w of sample s (vector length
	// C·K·K).
	Windows [][]*feip.Ciphertext
	// Positions[s][a] encrypts kernel-position row a of sample s (vector
	// length = number of windows).
	Positions [][]*feip.Ciphertext
	// Y is the encrypted label matrix, as in EncryptedBatch.
	Y *securemat.EncryptedMatrix
	// Geometry of the pre-processing.
	C, H, W, K, Stride, Pad int
	OutH, OutW              int
	Classes, N              int
}

// WindowLen returns the length of each window vector.
func (b *EncryptedConvBatch) WindowLen() int { return b.C * b.K * b.K }

// NumWindows returns the number of sliding windows per sample.
func (b *EncryptedConvBatch) NumWindows() int { return b.OutH * b.OutW }

// EncryptConvBatch pre-processes a batch for secure convolution
// (Algorithm 3 lines 9–16): the client learns the padding strategy and
// filter size from the server's architecture and encrypts each sliding
// window as a vector.
func (c *Client) EncryptConvBatch(x, y *tensor.Dense, inC, inH, inW, k, stride, pad int) (*EncryptedConvBatch, error) {
	if x.Cols != y.Cols {
		return nil, fmt.Errorf("core: %d samples but %d label columns", x.Cols, y.Cols)
	}
	if x.Rows != inC*inH*inW {
		return nil, fmt.Errorf("core: %d input features for %dx%dx%d geometry", x.Rows, inC, inH, inW)
	}
	outH, err := tensor.ConvOutSize(inH, k, stride, pad)
	if err != nil {
		return nil, fmt.Errorf("core: conv geometry: %w", err)
	}
	outW, err := tensor.ConvOutSize(inW, k, stride, pad)
	if err != nil {
		return nil, fmt.Errorf("core: conv geometry: %w", err)
	}
	batch := &EncryptedConvBatch{
		Windows:   make([][]*feip.Ciphertext, x.Cols),
		Positions: make([][]*feip.Ciphertext, x.Cols),
		C:         inC, H: inH, W: inW, K: k, Stride: stride, Pad: pad,
		OutH: outH, OutW: outW,
		Classes: y.Rows, N: x.Cols,
	}
	for s := 0; s < x.Cols; s++ {
		vol, err := tensor.VolumeFromFlat(x.Col(s), inC, inH, inW)
		if err != nil {
			return nil, err
		}
		col, err := tensor.Im2Col(vol, k, k, stride, pad)
		if err != nil {
			return nil, fmt.Errorf("core: im2col sample %d: %w", s, err)
		}
		ci, err := c.Codec.EncodeMat(col.Rows2D())
		if err != nil {
			return nil, fmt.Errorf("core: encoding windows of sample %d: %w", s, err)
		}
		// Columns of the im2col matrix are the windows, rows the kernel
		// positions: the dual-orientation encryption of a dense batch.
		enc, err := c.Engine.Encrypt(ci, securemat.EncryptOptions{SkipElems: true, WithRows: true})
		if err != nil {
			return nil, fmt.Errorf("core: encrypting windows of sample %d: %w", s, err)
		}
		batch.Windows[s], batch.Positions[s] = enc.ColCts, enc.RowCts
	}

	if batch.Y, err = c.encryptLabels(y); err != nil {
		return nil, err
	}
	return batch, nil
}
