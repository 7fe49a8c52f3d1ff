package wire

// Binary body layouts for every frame type (codec.go). Group elements
// are flat uint64 limb slabs internally; on the wire they become
// fixed-width big-endian byte strings with the width declared once per
// section, so a ciphertext matrix is one contiguous slab decoded by pure
// slicing — no type descriptors, no per-element length prefixes, and no
// reflection. All integers are big-endian; counts are u32, element
// widths u16. Signed scalars (weights, FEBO operands) are zig-zag
// varints and sparse indices unsigned varints, so a key frame is never
// larger than the values it carries need.
//
//	ciphertext vector section ("ctvec"):
//	  u32 count | u32 eta | u16 elemLen |
//	  count × ( ct0 [elemLen] | eta × ct [elemLen] )
//
//	element matrix section (FEBO cells):
//	  u16 elemLen | rows·cols × ( cmt [elemLen] | ct [elemLen] )
//
//	EncryptedMatrix:
//	  u32 rows | u32 cols | u8 flags (1=rowCts, 2=elems) |
//	  ctvec colCts | [ctvec rowCts] | [element matrix]
//
//	EncryptedBatch (bfPredict, bfSubmit):
//	  u32 features | u32 classes | u32 n | u8 flags (1=X, 2=Y) |
//	  [EncryptedMatrix X] | [EncryptedMatrix Y]
//
//	EncryptedConvBatch (bfSubmitConv):
//	  u32 ×10 geometry (C,H,W,K,Stride,Pad,OutH,OutW,Classes,N) |
//	  u8 flags (1=Y) | ctvec windows (N·outH·outW, eta=C·K·K) |
//	  ctvec positions (N·C·K·K, eta=outH·outW) | [EncryptedMatrix Y]
//
//	sparse ciphertext vector section ("spctvec", coordinate form —
//	supports may differ per ciphertext, so nnz is per-entry):
//	  u32 count | u32 eta | u16 elemLen |
//	  count × ( u32 nnz | ct0 [elemLen] |
//	            nnz × ( u32 idx | ct [elemLen] ) )
//	  indices are strictly increasing and < eta; nnz ≤ eta
//
//	SparseBatch (bfPredictTopK):
//	  u32 k | u32 features | u32 classes | u32 n |
//	  spctvec colCts (count=n, eta=features)
//
//	predictions (bfPreds):
//	  u32 count | count × i32 class
//
//	top-k hits (bfTopK):
//	  u32 nSamples | nSamples × ( u32 h |
//	    h × ( u32 label | i64 value, two's complement ) )
//
// Key plane (authority and cluster nodes). "svarint" is a zig-zag
// varint, "uvarint" an unsigned one:
//
//	element section ("elems"):
//	  u32 count | u16 elemLen | count × elem [elemLen]
//
//	scalar matrix (bfIPKeyBatch, bfPartialIPKeyBatch):
//	  u32 count | u32 eta | count·eta × svarint, row-major
//
//	bfFEIPPublic:   u32 eta
//	bfIPKeySparse:  u32 eta | u32 nnz | nnz × ( uvarint idx | svarint val )
//	                indices strictly increasing and < eta
//	FEBO key request (bfBOKeyBatch, bfPartialBOKeyBatch):
//	  u8 op | elems commitments | count × svarint scalar
//
//	bfPublicKey:    elems (P, Q, G, then the key's h elements); a
//	                cluster node's feip-public answer carries the joint
//	                key followed by the N public share vectors h^(j),
//	                (N+1)·η elements
//	bfKey:          u16 elemLen | k [elemLen]
//	bfKeyBatch:     elems keys, request order
//	bfCluster:      u32 nodeIndex | u32 threshold | bfPublicKey layout
//	                whose h elements are the joint FEBO key followed by
//	                the N share commitments
//	bfPartialKeys:  u32 nodeIndex | u8 flags (1=proof) | elems partials |
//	                [elems (proof C, proof Z)]
//
// Decoders hold every key-plane section to a keyLimits: counts against
// DefaultMaxEta before the slab is sliced, element widths against the
// width of the group's P.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
	"cryptonn/internal/thresh"
)

// ErrBinaryEncoding reports a malformed binary body.
var ErrBinaryEncoding = errors.New("wire: malformed binary frame body")

// maxBinCount bounds any single count or dimension on both sides of the
// wire: the decoder rejects hostile 4-byte headers before they trigger a
// huge allocation, and the encoder rejects the same values up front so a
// legitimate oversize payload fails fast locally instead of being
// refused by every peer.
const maxBinCount = 1 << 24

func appendU32(b []byte, v int) ([]byte, error) {
	if v < 0 || v > maxBinCount {
		return nil, fmt.Errorf("%w: value %d out of range", ErrBinaryEncoding, v)
	}
	return binary.BigEndian.AppendUint32(b, uint32(v)), nil
}

// elemWidth returns the fixed byte width needed for every element of the
// given vectors (at least 1 so zero-valued elements still occupy a slot).
func elemWidth(widest int, vals ...*big.Int) (int, error) {
	for _, v := range vals {
		if v == nil {
			return 0, fmt.Errorf("%w: nil group element", ErrBinaryEncoding)
		}
		if v.Sign() < 0 {
			return 0, fmt.Errorf("%w: negative group element", ErrBinaryEncoding)
		}
		widest = max(widest, (v.BitLen()+7)/8)
	}
	if widest > 0xffff {
		return 0, fmt.Errorf("%w: element width %d exceeds u16", ErrBinaryEncoding, widest)
	}
	return max(widest, 1), nil
}

// appendBig appends v as exactly width big-endian bytes.
func appendBig(b []byte, v *big.Int, width int) []byte {
	n := len(b)
	b = append(b, make([]byte, width)...)
	v.FillBytes(b[n : n+width])
	return b
}

// binCursor walks a binary body. Every read checks the remaining length,
// and the first failure sticks: later reads return zero values, so a
// decoder reads a run of fields, validates them, and checks err once —
// always before allocating anything sized by what it read.
type binCursor struct {
	b   []byte
	off int
	err error
}

// fail records the first decoding failure as an ErrBinaryEncoding.
func (c *binCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrBinaryEncoding, fmt.Sprintf(format, args...))
	}
}

// left is the number of unread body bytes.
func (c *binCursor) left() int { return len(c.b) - c.off }

// fits reports whether count records of per bytes each fit the unread
// body, failing the cursor otherwise. The division keeps a hostile
// count·per product exact whatever the operands.
func (c *binCursor) fits(what string, count, per int) bool {
	if c.err == nil && per > 0 && count > c.left()/per {
		c.fail("%s larger than body", what)
	}
	return c.err == nil
}

func (c *binCursor) take(n int) []byte {
	if c.err == nil && (n < 0 || c.left() < n) {
		c.fail("truncated at offset %d (need %d of %d)", c.off, n, len(c.b))
	}
	if c.err != nil {
		return nil
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s
}

func (c *binCursor) u8() byte {
	if s := c.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (c *binCursor) u16() int {
	if s := c.take(2); s != nil {
		return int(binary.BigEndian.Uint16(s))
	}
	return 0
}

// word reads a raw 32-bit value; u32 a count or dimension, capped at
// maxBinCount.
func (c *binCursor) word() uint32 {
	if s := c.take(4); s != nil {
		return binary.BigEndian.Uint32(s)
	}
	return 0
}

func (c *binCursor) u32() int {
	v := c.word()
	if v > maxBinCount {
		c.fail("count %d exceeds limit", v)
		return 0
	}
	return int(v)
}

func (c *binCursor) u64() uint64 {
	if s := c.take(8); s != nil {
		return binary.BigEndian.Uint64(s)
	}
	return 0
}

func (c *binCursor) big(width int) *big.Int {
	return new(big.Int).SetBytes(c.take(width))
}

// svarint reads a zig-zag varint (signed scalars); uvarint an unsigned one.
func (c *binCursor) svarint() int64 {
	v, n := binary.Varint(c.b[c.off:])
	return int64(c.varint(uint64(v), n))
}

func (c *binCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	return c.varint(v, n)
}

func (c *binCursor) varint(v uint64, n int) uint64 {
	if c.err == nil && n <= 0 {
		c.fail("bad varint at offset %d", c.off)
	}
	if c.err != nil {
		return 0
	}
	c.off += n
	return v
}

// finish ends a decode: the first failure, or unread trailing bytes.
func (c *binCursor) finish() error {
	if c.err == nil && c.off != len(c.b) {
		c.fail("%d trailing bytes", c.left())
	}
	return c.err
}

// decodeEmpty checks the body of a bodyless frame.
func decodeEmpty(body []byte) error { return (&binCursor{b: body}).finish() }

// --- ciphertext vector sections -------------------------------------------

// appendCtVec writes a ctvec section for FEIP ciphertexts sharing one
// dimension.
func appendCtVec(b []byte, cts []*feip.Ciphertext, eta int) ([]byte, error) {
	width := 0
	for _, ct := range cts {
		if ct == nil || len(ct.Ct) != eta {
			return nil, fmt.Errorf("%w: ciphertext dimension mismatch", ErrBinaryEncoding)
		}
		var err error
		if width, err = elemWidth(width, ct.Ct0); err != nil {
			return nil, err
		}
		if width, err = elemWidth(width, ct.Ct...); err != nil {
			return nil, err
		}
	}
	width = max(width, 1)
	var err error
	if b, err = appendU32(b, len(cts)); err != nil {
		return nil, err
	}
	if b, err = appendU32(b, eta); err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, uint16(width))
	for _, ct := range cts {
		b = appendBig(b, ct.Ct0, width)
		for _, v := range ct.Ct {
			b = appendBig(b, v, width)
		}
	}
	return b, nil
}

// vecHeader reads the count | eta | elemLen header ctvec and spctvec
// share, requiring the declared shape when wantCount/wantEta are
// non-negative.
func (c *binCursor) vecHeader(wantCount, wantEta int) (count, eta, width int) {
	count, eta, width = c.u32(), c.u32(), c.u16()
	switch {
	case c.err != nil:
	case wantCount >= 0 && count != wantCount:
		c.fail("%d ciphertexts, want %d", count, wantCount)
	case wantEta >= 0 && eta != wantEta:
		c.fail("ciphertext dimension %d, want %d", eta, wantEta)
	case width < 1:
		c.fail("zero element width")
	case eta >= maxBinCount:
		c.fail("ciphertext dimension %d out of range", eta)
	}
	return count, eta, width
}

// readCtVec reads a ctvec section. The whole section must fit the
// remaining body before any per-count allocation happens.
func readCtVec(c *binCursor, wantCount, wantEta int) []*feip.Ciphertext {
	count, eta, width := c.vecHeader(wantCount, wantEta)
	if !c.fits("section", count, (eta+1)*width) {
		return nil
	}
	cts := make([]*feip.Ciphertext, count)
	for i := range cts {
		ct := &feip.Ciphertext{Ct0: c.big(width), Ct: make([]*big.Int, eta)}
		for j := range ct.Ct {
			ct.Ct[j] = c.big(width)
		}
		cts[i] = ct
	}
	return cts
}

// appendSparseCtVec writes a spctvec section for coordinate-form FEIP
// ciphertexts sharing one dimension.
func appendSparseCtVec(b []byte, cts []*feip.SparseCiphertext, eta int) ([]byte, error) {
	width := 0
	for _, ct := range cts {
		if ct == nil || ct.Eta != eta || len(ct.Idx) != len(ct.Ct) || len(ct.Idx) > eta {
			return nil, fmt.Errorf("%w: sparse ciphertext geometry mismatch", ErrBinaryEncoding)
		}
		var err error
		if width, err = elemWidth(width, ct.Ct0); err != nil {
			return nil, err
		}
		if width, err = elemWidth(width, ct.Ct...); err != nil {
			return nil, err
		}
	}
	width = max(width, 1)
	var err error
	if b, err = appendU32(b, len(cts)); err != nil {
		return nil, err
	}
	if b, err = appendU32(b, eta); err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, uint16(width))
	for _, ct := range cts {
		if b, err = appendU32(b, len(ct.Idx)); err != nil {
			return nil, err
		}
		b = appendBig(b, ct.Ct0, width)
		prev := -1
		for t, idx := range ct.Idx {
			if idx <= prev || idx >= eta {
				return nil, fmt.Errorf("%w: support index %d out of order or range", ErrBinaryEncoding, idx)
			}
			prev = idx
			if b, err = appendU32(b, idx); err != nil {
				return nil, err
			}
			b = appendBig(b, ct.Ct[t], width)
		}
	}
	return b, nil
}

// support enforces the canonical form of a coordinate list as it is read:
// strictly increasing indices below eta. Sparse ciphertexts and sparse key
// requests share the rule.
func (c *binCursor) support(idx, prev, eta, t int) int {
	if c.err == nil && (idx <= prev || idx >= eta) {
		c.fail("support index %d out of order or range at pair %d", idx, t)
	}
	return idx
}

// readSparseCtVec reads a spctvec section. Supports are validated to the
// canonical form the coordinate-form bodies demand (strictly increasing,
// inside [0, η)) — a hostile frame fails here with ErrBinaryEncoding
// instead of reaching the crypto layer.
func readSparseCtVec(c *binCursor, wantCount, wantEta int) []*feip.SparseCiphertext {
	count, eta, width := c.vecHeader(wantCount, wantEta)
	if c.err == nil && eta < 1 {
		c.fail("sparse dimension %d out of range", eta)
	}
	// Every entry costs at least its nnz word plus ct0, so a hostile count
	// far beyond the body fails before the per-entry loop allocates.
	if !c.fits("section", count, 4+width) {
		return nil
	}
	cts := make([]*feip.SparseCiphertext, count)
	for i := range cts {
		nnz := c.u32()
		if c.err == nil && nnz > eta {
			c.fail("nnz %d exceeds dimension %d", nnz, eta)
		}
		// ct0 and the pair list must fit the remaining body before allocation.
		if c.err == nil && (c.left() < width || nnz > (c.left()-width)/(4+width)) {
			c.fail("sparse pair list larger than body")
		}
		if c.err != nil {
			return nil
		}
		ct := &feip.SparseCiphertext{Eta: eta, Idx: make([]int, nnz), Ct: make([]*big.Int, nnz), Ct0: c.big(width)}
		prev := -1
		for t := range ct.Idx {
			prev = c.support(c.u32(), prev, eta, t)
			ct.Idx[t], ct.Ct[t] = prev, c.big(width)
		}
		cts[i] = ct
	}
	return cts
}

// --- EncryptedMatrix -------------------------------------------------------

const (
	matFlagRows  = 1
	matFlagElems = 2
)

func appendMatrix(b []byte, m *securemat.EncryptedMatrix) ([]byte, error) {
	if m == nil || m.ColCts == nil {
		return nil, fmt.Errorf("%w: matrix without column ciphertexts", ErrBinaryEncoding)
	}
	var err error
	if b, err = appendU32(b, m.Rows); err != nil {
		return nil, err
	}
	if b, err = appendU32(b, m.Cols); err != nil {
		return nil, err
	}
	var flags byte
	if m.RowCts != nil {
		flags |= matFlagRows
	}
	if m.Elems != nil {
		flags |= matFlagElems
	}
	b = append(b, flags)
	if b, err = appendCtVec(b, m.ColCts, m.Rows); err != nil {
		return nil, fmt.Errorf("column ciphertexts: %w", err)
	}
	if m.RowCts != nil {
		if b, err = appendCtVec(b, m.RowCts, m.Cols); err != nil {
			return nil, fmt.Errorf("row ciphertexts: %w", err)
		}
	}
	if m.Elems != nil {
		if len(m.Elems) != m.Rows {
			return nil, fmt.Errorf("%w: %d element rows for %d matrix rows", ErrBinaryEncoding, len(m.Elems), m.Rows)
		}
		width := 0
		for _, row := range m.Elems {
			if len(row) != m.Cols {
				return nil, fmt.Errorf("%w: ragged element matrix", ErrBinaryEncoding)
			}
			for _, e := range row {
				if e == nil {
					return nil, fmt.Errorf("%w: nil element ciphertext", ErrBinaryEncoding)
				}
				if width, err = elemWidth(width, e.Cmt, e.Ct); err != nil {
					return nil, err
				}
			}
		}
		width = max(width, 1)
		b = binary.BigEndian.AppendUint16(b, uint16(width))
		for _, row := range m.Elems {
			for _, e := range row {
				b = appendBig(b, e.Cmt, width)
				b = appendBig(b, e.Ct, width)
			}
		}
	}
	return b, nil
}

func readMatrix(c *binCursor) *securemat.EncryptedMatrix {
	m := &securemat.EncryptedMatrix{Rows: c.u32(), Cols: c.u32()}
	flags := c.u8()
	m.ColCts = readCtVec(c, m.Cols, m.Rows)
	if flags&matFlagRows != 0 {
		m.RowCts = readCtVec(c, m.Rows, m.Cols)
	}
	if flags&matFlagElems != 0 {
		width := c.u16()
		if c.err == nil && width < 1 {
			c.fail("zero element width")
		}
		if !c.fits("element section", m.Rows*m.Cols, 2*width) {
			return nil
		}
		m.Elems = make([][]*febo.Ciphertext, m.Rows)
		for i := range m.Elems {
			m.Elems[i] = make([]*febo.Ciphertext, m.Cols)
			for j := range m.Elems[i] {
				m.Elems[i][j] = &febo.Ciphertext{Cmt: c.big(width), Ct: c.big(width)}
			}
		}
	}
	return m
}

// --- EncryptedBatch --------------------------------------------------------

const (
	batchFlagX = 1
	batchFlagY = 2
)

// appendEncryptedBatch writes the bfPredict/bfSubmit body.
func appendEncryptedBatch(b []byte, enc *core.EncryptedBatch) ([]byte, error) {
	if enc == nil {
		return nil, fmt.Errorf("%w: nil batch", ErrBinaryEncoding)
	}
	var err error
	if b, err = appendU32(b, enc.Features); err != nil {
		return nil, err
	}
	if b, err = appendU32(b, enc.Classes); err != nil {
		return nil, err
	}
	if b, err = appendU32(b, enc.N); err != nil {
		return nil, err
	}
	var flags byte
	if enc.X != nil {
		flags |= batchFlagX
	}
	if enc.Y != nil {
		flags |= batchFlagY
	}
	b = append(b, flags)
	if enc.X != nil {
		if b, err = appendMatrix(b, enc.X); err != nil {
			return nil, fmt.Errorf("wire: encoding X: %w", err)
		}
	}
	if enc.Y != nil {
		if b, err = appendMatrix(b, enc.Y); err != nil {
			return nil, fmt.Errorf("wire: encoding Y: %w", err)
		}
	}
	return b, nil
}

// decodeEncryptedBatch reads a bfPredict/bfSubmit body.
func decodeEncryptedBatch(body []byte) (*core.EncryptedBatch, error) {
	c := &binCursor{b: body}
	enc := &core.EncryptedBatch{Features: c.u32(), Classes: c.u32(), N: c.u32()}
	flags := c.u8()
	if flags&batchFlagX != 0 {
		enc.X = readMatrix(c)
	}
	if flags&batchFlagY != 0 {
		enc.Y = readMatrix(c)
	}
	return enc, c.finish()
}

// --- EncryptedConvBatch ----------------------------------------------------

// appendConvBatch writes the bfSubmitConv body.
func appendConvBatch(b []byte, enc *core.EncryptedConvBatch) ([]byte, error) {
	if enc == nil {
		return nil, fmt.Errorf("%w: nil conv batch", ErrBinaryEncoding)
	}
	var err error
	for _, v := range []int{enc.C, enc.H, enc.W, enc.K, enc.Stride, enc.Pad, enc.OutH, enc.OutW, enc.Classes, enc.N} {
		if b, err = appendU32(b, v); err != nil {
			return nil, err
		}
	}
	var flags byte
	if enc.Y != nil {
		flags |= batchFlagY
	}
	b = append(b, flags)
	windowLen, numWindows := enc.WindowLen(), enc.NumWindows()
	if len(enc.Windows) != enc.N || len(enc.Positions) != enc.N {
		return nil, fmt.Errorf("%w: %d/%d per-sample slices for %d samples", ErrBinaryEncoding, len(enc.Windows), len(enc.Positions), enc.N)
	}
	flat := make([]*feip.Ciphertext, 0, enc.N*numWindows)
	for _, ws := range enc.Windows {
		if len(ws) != numWindows {
			return nil, fmt.Errorf("%w: %d windows, want %d", ErrBinaryEncoding, len(ws), numWindows)
		}
		flat = append(flat, ws...)
	}
	if b, err = appendCtVec(b, flat, windowLen); err != nil {
		return nil, fmt.Errorf("wire: encoding windows: %w", err)
	}
	flat = flat[:0]
	for _, ps := range enc.Positions {
		if len(ps) != windowLen {
			return nil, fmt.Errorf("%w: %d position rows, want %d", ErrBinaryEncoding, len(ps), windowLen)
		}
		flat = append(flat, ps...)
	}
	if b, err = appendCtVec(b, flat, numWindows); err != nil {
		return nil, fmt.Errorf("wire: encoding positions: %w", err)
	}
	if enc.Y != nil {
		if b, err = appendMatrix(b, enc.Y); err != nil {
			return nil, fmt.Errorf("wire: encoding Y: %w", err)
		}
	}
	return b, nil
}

// mulBounded multiplies two decoded dimensions with overflow-safe
// arithmetic: both factors and the product must lie in [1, maxBinCount].
// Because each checked value is at most 2^24 the uint64 product is at
// most 2^48 and can never wrap, so chained calls stay exact no matter
// what geometry a hostile frame declares.
func (c *binCursor) mulBounded(a, b int) int {
	if c.err != nil {
		return 0
	}
	if a < 1 || a > maxBinCount || b < 1 || b > maxBinCount {
		c.fail("conv geometry out of range")
		return 0
	}
	p := uint64(a) * uint64(b)
	if p > maxBinCount {
		c.fail("conv geometry product %d exceeds limit", p)
		return 0
	}
	return int(p)
}

// decodeConvBatch reads a bfSubmitConv body. The geometry words are
// attacker-controlled, so windowLen (C·K·K) and numWindows (OutH·OutW)
// are derived via mulBounded rather than the in-memory helpers — a
// product that overflows int64 to a negative value would otherwise
// disable readCtVec's shape checks and panic in the re-slicing below.
func decodeConvBatch(body []byte) (*core.EncryptedConvBatch, error) {
	c := &binCursor{b: body}
	enc := &core.EncryptedConvBatch{}
	for _, dst := range []*int{&enc.C, &enc.H, &enc.W, &enc.K, &enc.Stride, &enc.Pad, &enc.OutH, &enc.OutW, &enc.Classes, &enc.N} {
		*dst = c.u32()
	}
	flags := c.u8()
	windowLen := c.mulBounded(c.mulBounded(enc.C, enc.K), enc.K)
	numWindows := c.mulBounded(enc.OutH, enc.OutW)
	windows := readCtVec(c, c.mulBounded(enc.N, numWindows), windowLen)
	positions := readCtVec(c, c.mulBounded(enc.N, windowLen), numWindows)
	if c.err != nil {
		return nil, c.err
	}
	enc.Windows = make([][]*feip.Ciphertext, enc.N)
	enc.Positions = make([][]*feip.Ciphertext, enc.N)
	for s := range enc.Windows {
		enc.Windows[s] = windows[s*numWindows : (s+1)*numWindows]
		enc.Positions[s] = positions[s*windowLen : (s+1)*windowLen]
	}
	if flags&batchFlagY != 0 {
		enc.Y = readMatrix(c)
	}
	return enc, c.finish()
}

// --- SparseBatch (bfPredictTopK) -------------------------------------------

// appendSparseBatch writes the bfPredictTopK body: the requested k and the
// coordinate-form batch.
func appendSparseBatch(b []byte, k int, sp *core.SparseBatch) ([]byte, error) {
	if sp == nil || sp.X == nil {
		return nil, fmt.Errorf("%w: nil sparse batch", ErrBinaryEncoding)
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: top-k count %d out of range", ErrBinaryEncoding, k)
	}
	if sp.X.Rows != sp.Features || sp.X.Cols != sp.N {
		return nil, fmt.Errorf("%w: sparse matrix is %dx%d, batch claims %dx%d", ErrBinaryEncoding, sp.X.Rows, sp.X.Cols, sp.Features, sp.N)
	}
	var err error
	for _, v := range []int{k, sp.Features, sp.Classes, sp.N} {
		if b, err = appendU32(b, v); err != nil {
			return nil, err
		}
	}
	if b, err = appendSparseCtVec(b, sp.X.ColCts, sp.Features); err != nil {
		return nil, fmt.Errorf("wire: encoding sparse X: %w", err)
	}
	return b, nil
}

// decodeSparseBatch reads a bfPredictTopK body.
func decodeSparseBatch(body []byte) (int, *core.SparseBatch, error) {
	c := &binCursor{b: body}
	k := c.u32()
	if c.err == nil && k < 1 {
		c.fail("top-k count %d out of range", k)
	}
	sp := &core.SparseBatch{Features: c.u32(), Classes: c.u32(), N: c.u32()}
	sp.X = &securemat.SparseEncryptedMatrix{Rows: sp.Features, Cols: sp.N, ColCts: readSparseCtVec(c, sp.N, sp.Features)}
	return k, sp, c.finish()
}

// --- top-k hits (bfTopK) ---------------------------------------------------

// appendTopKHits writes the bfTopK body: one descending hit list per
// sample.
func appendTopKHits(b []byte, hits [][]dlog.TopKHit) ([]byte, error) {
	var err error
	if b, err = appendU32(b, len(hits)); err != nil {
		return nil, err
	}
	for _, hs := range hits {
		if b, err = appendU32(b, len(hs)); err != nil {
			return nil, err
		}
		for _, h := range hs {
			if b, err = appendU32(b, h.Index); err != nil {
				return nil, err
			}
			b = binary.BigEndian.AppendUint64(b, uint64(h.Value))
		}
	}
	return b, nil
}

// decodeTopKHits reads a bfTopK body.
func decodeTopKHits(body []byte) ([][]dlog.TopKHit, error) {
	c := &binCursor{b: body}
	n := c.u32()
	// Each sample costs at least its length word.
	if !c.fits("top-k section", n, 4) {
		return nil, c.err
	}
	hits := make([][]dlog.TopKHit, n)
	for i := range hits {
		h := c.u32()
		if !c.fits("hit list", h, 12) {
			return nil, c.err
		}
		hits[i] = make([]dlog.TopKHit, h)
		for t := range hits[i] {
			hits[i][t] = dlog.TopKHit{Index: c.u32(), Value: int64(c.u64())}
		}
	}
	return hits, c.finish()
}

// --- predictions -----------------------------------------------------------

// appendPreds writes the bfPreds body.
func appendPreds(b []byte, preds []int) ([]byte, error) {
	var err error
	if b, err = appendU32(b, len(preds)); err != nil {
		return nil, err
	}
	for _, p := range preds {
		if p < -1<<31 || p > 1<<31-1 {
			return nil, fmt.Errorf("%w: prediction %d out of i32 range", ErrBinaryEncoding, p)
		}
		b = binary.BigEndian.AppendUint32(b, uint32(int32(p)))
	}
	return b, nil
}

// decodePreds reads a bfPreds body.
func decodePreds(body []byte) ([]int, error) {
	c := &binCursor{b: body}
	n := c.u32()
	if !c.fits("prediction section", n, 4) {
		return nil, c.err
	}
	preds := make([]int, n)
	for i := range preds {
		preds[i] = int(int32(c.word()))
	}
	return preds, c.finish()
}

// --- key plane ---------------------------------------------------------------

// maxElemLen bounds a self-declared element width (public-key frames, and
// key frames decoded before any public key is known): 8192-bit groups.
const maxElemLen = 1024

// keyLimits is what a key-frame decoder holds a hostile body to: maxEta
// caps every dimension and batch size, width every element section (the
// byte width of the group's P). Servers take both from their own
// configuration and group; clients from the public key they validated.
type keyLimits struct{ maxEta, width int }

// limitsFor returns the limits of a peer whose group is params.
func limitsFor(params *group.Params, maxEta int) keyLimits {
	return keyLimits{maxEta: maxEta, width: (params.P.BitLen() + 7) / 8}
}

// anyGroup are the limits of a decoder that knows no group yet.
var anyGroup = keyLimits{maxEta: maxBinCount, width: maxElemLen}

// dim reads a dimension or batch size and holds it to lim.maxEta — the
// one failure that is ErrLimitExceeded rather than ErrBinaryEncoding.
func (c *binCursor) dim(what string, lim keyLimits) int {
	n := c.u32()
	if c.err == nil && n > lim.maxEta {
		c.err = fmt.Errorf("%w: %s %d > max %d", ErrLimitExceeded, what, n, lim.maxEta)
	}
	return n
}

// elems reads count elements of a declared width no wider than lim.width;
// the slab must fit the remaining body before anything is allocated.
func (c *binCursor) elems(count int, lim keyLimits) []*big.Int {
	width := c.u16()
	if c.err == nil && (width < 1 || width > lim.width) {
		c.fail("element width %d outside [1, %d]", width, lim.width)
	}
	if !c.fits("element section", count, width) {
		return nil
	}
	es := make([]*big.Int, count)
	for i := range es {
		es[i] = c.big(width)
	}
	return es
}

// elemSection reads an elems section.
func (c *binCursor) elemSection(lim keyLimits) []*big.Int {
	return c.elems(c.dim("batch size", lim), lim)
}

// scalars reads n svarints; each costs at least a byte, so n is held to
// the remaining body before the slice is made.
func (c *binCursor) scalars(n int) []int64 {
	if !c.fits("scalar section", n, 1) {
		return nil
	}
	ys := make([]int64, n)
	for i := range ys {
		ys[i] = c.svarint()
	}
	return ys
}

// appendElems writes an elems section at the narrowest width that fits.
func appendElems(b []byte, es []*big.Int) ([]byte, error) {
	width, err := elemWidth(0, es...)
	if err != nil {
		return nil, err
	}
	if b, err = appendU32(b, len(es)); err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, uint16(width))
	for _, e := range es {
		b = appendBig(b, e, width)
	}
	return b, nil
}

// appendScalarMatrix writes the bfIPKeyBatch / bfPartialIPKeyBatch body:
// weight vectors sharing one dimension.
func appendScalarMatrix(b []byte, ys [][]int64) ([]byte, error) {
	eta := 0
	if len(ys) > 0 {
		eta = len(ys[0])
	}
	var err error
	if b, err = appendU32(b, len(ys)); err != nil {
		return nil, err
	}
	if b, err = appendU32(b, eta); err != nil {
		return nil, err
	}
	for v, y := range ys {
		if len(y) != eta {
			return nil, fmt.Errorf("%w: batch vector %d has η=%d, want %d", ErrBinaryEncoding, v, len(y), eta)
		}
		for _, s := range y {
			b = binary.AppendVarint(b, s)
		}
	}
	return b, nil
}

func decodeScalarMatrix(body []byte, lim keyLimits) ([][]int64, error) {
	c := &binCursor{b: body}
	count, eta := c.dim("batch size", lim), c.dim("|y|", lim)
	if c.err == nil && count > 0 && eta < 1 {
		c.fail("zero-dimensional weight vectors")
	}
	flat := c.scalars(count * eta)
	if c.err != nil {
		return nil, c.err
	}
	ys := make([][]int64, count)
	for v := range ys {
		ys[v] = flat[v*eta : (v+1)*eta : (v+1)*eta]
	}
	return ys, c.finish()
}

// decodeDim reads the bfFEIPPublic body: the requested η as one u32.
func decodeDim(body []byte, lim keyLimits) (int, error) {
	c := &binCursor{b: body}
	return c.dim("η", lim), c.finish()
}

// appendSparseKeyRequest writes the bfIPKeySparse body.
func appendSparseKeyRequest(b []byte, eta int, idx []int, vals []int64) ([]byte, error) {
	if len(idx) != len(vals) {
		return nil, fmt.Errorf("%w: %d support indices for %d values", ErrBinaryEncoding, len(idx), len(vals))
	}
	var err error
	if b, err = appendU32(b, eta); err != nil {
		return nil, err
	}
	if b, err = appendU32(b, len(idx)); err != nil {
		return nil, err
	}
	prev := -1
	for t, i := range idx {
		if i <= prev || i >= eta {
			return nil, fmt.Errorf("%w: support index %d out of order or range", ErrBinaryEncoding, i)
		}
		prev = i
		b = binary.AppendVarint(binary.AppendUvarint(b, uint64(i)), vals[t])
	}
	return b, nil
}

// decodeSparseKeyRequest reads a bfIPKeySparse body, holding the support
// to the spctvec rule: strictly increasing indices below η, nnz ≤ η.
func decodeSparseKeyRequest(body []byte, lim keyLimits) (eta int, idx []int, vals []int64, err error) {
	c := &binCursor{b: body}
	eta = c.dim("η", lim)
	nnz := c.u32()
	if c.err == nil && nnz > eta {
		c.fail("support size %d exceeds dimension %d", nnz, eta)
	}
	if !c.fits("support", nnz, 2) {
		return 0, nil, nil, c.err
	}
	idx, vals = make([]int, nnz), make([]int64, nnz)
	prev := -1
	for t := range idx {
		prev = c.support(int(min(c.uvarint(), maxBinCount)), prev, eta, t)
		idx[t], vals[t] = prev, c.svarint()
	}
	return eta, idx, vals, c.finish()
}

// appendBORequest writes the bfBOKeyBatch / bfPartialBOKeyBatch body: one
// operation over (commitment, scalar) pairs.
func appendBORequest(b []byte, cmts []*big.Int, op febo.Op, ys []int64) ([]byte, error) {
	if len(cmts) != len(ys) {
		return nil, fmt.Errorf("%w: %d commitments for %d scalars", ErrBinaryEncoding, len(cmts), len(ys))
	}
	b, err := appendElems(append(b, byte(op)), cmts)
	if err != nil {
		return nil, err
	}
	for _, y := range ys {
		b = binary.AppendVarint(b, y)
	}
	return b, nil
}

func decodeBORequest(body []byte, lim keyLimits) (cmts []*big.Int, op febo.Op, ys []int64, err error) {
	c := &binCursor{b: body}
	if op = febo.Op(c.u8()); c.err == nil && !op.Valid() {
		c.fail("invalid FEBO op %d", int(op))
	}
	cmts = c.elemSection(lim)
	ys = c.scalars(len(cmts))
	return cmts, op, ys, c.finish()
}

// publicKeyMsg is a decoded bfPublicKey body: group parameters and the
// key's h elements, none of them validated yet.
type publicKeyMsg struct {
	P, Q, G *big.Int
	H       []*big.Int
}

// params validates the carried group.
func (m *publicKeyMsg) params() (*group.Params, error) {
	p := &group.Params{P: m.P, Q: m.Q, G: m.G}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("wire: peer sent invalid group: %w", err)
	}
	return p, nil
}

// appendPublicKey writes the bfPublicKey body: one element section
// holding P, Q, G and then the key's h elements.
func appendPublicKey(b []byte, p *group.Params, hs []*big.Int) ([]byte, error) {
	return appendElems(b, append([]*big.Int{p.P, p.Q, p.G}, hs...))
}

func readPublicKey(c *binCursor) *publicKeyMsg {
	es := c.elemSection(anyGroup)
	if c.err == nil && len(es) < 3 {
		c.fail("public key without group parameters")
	}
	if c.err != nil {
		return &publicKeyMsg{}
	}
	return &publicKeyMsg{P: es[0], Q: es[1], G: es[2], H: es[3:]}
}

func decodePublicKey(body []byte) (*publicKeyMsg, error) {
	c := &binCursor{b: body}
	return readPublicKey(c), c.finish()
}

// appendKey / decodeKey are the bfKey body: one function key.
func appendKey(b []byte, k *big.Int) ([]byte, error) {
	width, err := elemWidth(0, k)
	if err != nil {
		return nil, err
	}
	return appendBig(binary.BigEndian.AppendUint16(b, uint16(width)), k, width), nil
}

func decodeKey(body []byte, lim keyLimits) (*big.Int, error) {
	c := &binCursor{b: body}
	ks := c.elems(1, lim)
	if err := c.finish(); err != nil {
		return nil, err
	}
	return ks[0], nil
}

// decodeKeyBatch reads a bfKeyBatch body (appendElems writes it).
func decodeKeyBatch(body []byte, lim keyLimits) ([]*big.Int, error) {
	c := &binCursor{b: body}
	return c.elemSection(lim), c.finish()
}

// clusterInfo is a decoded bfCluster body: one node's view of the
// threshold cluster. Key.H is the joint FEBO key followed by the N share
// commitments A_j = g^{s^(j)}.
type clusterInfo struct {
	NodeIndex int64
	Threshold int
	Key       publicKeyMsg
}

func (ci *clusterInfo) nodes() int         { return len(ci.Key.H) - 1 }
func (ci *clusterInfo) joint() *big.Int    { return ci.Key.H[0] }
func (ci *clusterInfo) shares() []*big.Int { return ci.Key.H[1:] }

func appendClusterInfo(b []byte, ci *clusterInfo) ([]byte, error) {
	b, err := appendU32(b, int(ci.NodeIndex))
	if err != nil {
		return nil, err
	}
	if b, err = appendU32(b, ci.Threshold); err != nil {
		return nil, err
	}
	return appendPublicKey(b, &group.Params{P: ci.Key.P, Q: ci.Key.Q, G: ci.Key.G}, ci.Key.H)
}

func decodeClusterInfo(body []byte) (*clusterInfo, error) {
	c := &binCursor{b: body}
	ci := &clusterInfo{NodeIndex: int64(c.u32()), Threshold: c.u32(), Key: *readPublicKey(c)}
	if c.err == nil && len(ci.Key.H) < 2 {
		c.fail("cluster info without joint key and share commitments")
	}
	return ci, c.finish()
}

// partialKeys is a decoded bfPartialKeys body: one node's partial keys in
// request order, with the batched DLEQ proof FEBO partials carry.
type partialKeys struct {
	NodeIndex int64
	Ks        []*big.Int
	Proof     *thresh.EqProof // nil for FEIP partials
}

const partialFlagProof = 1

func appendPartialKeys(b []byte, pk *partialKeys) ([]byte, error) {
	b, err := appendU32(b, int(pk.NodeIndex))
	if err != nil {
		return nil, err
	}
	var flags byte
	if pk.Proof != nil {
		flags |= partialFlagProof
	}
	if b, err = appendElems(append(b, flags), pk.Ks); err != nil {
		return nil, err
	}
	if pk.Proof != nil {
		return appendElems(b, []*big.Int{pk.Proof.C, pk.Proof.Z})
	}
	return b, nil
}

func decodePartialKeys(body []byte, lim keyLimits) (*partialKeys, error) {
	c := &binCursor{b: body}
	pk := &partialKeys{NodeIndex: int64(c.u32())}
	flags := c.u8()
	pk.Ks = c.elemSection(lim)
	if flags&partialFlagProof != 0 {
		cz := c.elemSection(lim)
		if c.err == nil && len(cz) != 2 {
			c.fail("proof section carries %d scalars, want 2", len(cz))
		}
		if c.err == nil {
			pk.Proof = &thresh.EqProof{C: cz[0], Z: cz[1]}
		}
	}
	return pk, c.finish()
}
