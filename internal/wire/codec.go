package wire

// The one wire codec. Every connection — authority, training server,
// prediction server — opens with a version handshake and then carries
// binary frames:
//
//   - the client sends an 8-byte hello (magic "CNNB" + version); the
//     server answers an 8-byte ack and the connection is live. A listener
//     that reads anything else as its first 8 bytes closes the connection
//     and counts the rejection; there is no second protocol to fall back to.
//   - frames carry an explicit frame type and a request id, so a
//     connection can have many requests in flight and responses may come
//     back out of order (the prediction server evaluates concurrently
//     through the coalescing dispatcher).
//   - bodies are fixed-layout big-endian sections with explicit lengths
//     (binenc.go): no type descriptors, no reflection, every count checked
//     against the remaining body before anything is allocated.
//
// The frame-type block below is the closed protocol definition: a type
// that is not listed there does not exist, and docs/PROTOCOL.md and the
// golden frames are checked against it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxFrame caps a single frame body; encrypted MNIST-scale batches are
// large, so the cap is generous while still bounding a hostile peer.
const MaxFrame = 1 << 30

// ErrFrameTooLarge reports a frame exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// codecMagic opens a client hello; codecAckMagic opens the server's ack.
var (
	codecMagic    = [4]byte{'C', 'N', 'N', 'B'}
	codecAckMagic = [4]byte{'C', 'N', 'N', 'A'}
)

// CodecVersion is the wire-format version carried by the handshake. Bump
// it (and regenerate the golden frames — see docs/PROTOCOL.md "Changing
// the wire format") on any incompatible change to the frame or body
// layouts. Version 1 still had gob-wrapped frame types 0x01/0x02; version
// 2 still had the single-key requests ip-key (0x32) and bo-key (0x35);
// in version 3 a cluster node answered feip-public with the joint key
// alone, where it now appends every node's public share vector.
const CodecVersion = 4

// ErrCodecRefused reports that the peer did not acknowledge the hello.
var ErrCodecRefused = errors.New("wire: peer refused the codec handshake")

// errBadHello reports that a just-accepted connection did not open with a
// hello for CodecVersion.
var errBadHello = errors.New("wire: connection did not open with a valid hello")

// Frame types. Requests carry an id the matching response echoes.
const (
	// Data-plane requests (client → training / prediction server).
	bfPredict     = 0x10 // EncryptedBatch
	bfSubmit      = 0x11 // EncryptedBatch
	bfSubmitConv  = 0x12 // EncryptedConvBatch
	bfDone        = 0x13 // empty
	bfPredictTopK = 0x14 // u32 k + coordinate-form SparseBatch
	// Data-plane responses, and the error frame every server answers with.
	bfPreds = 0x20 // u32 count + count×i32 classes
	bfAck   = 0x21 // empty
	bfErr   = 0x22 // u8 flags (bit0 retryable) + UTF-8 message
	bfTopK  = 0x23 // per-sample (u32 label, i64 value) hit lists
	// Key-plane requests (server / client → authority or cluster node).
	bfFEIPPublic        = 0x30 // u32 eta
	bfFEBOPublic        = 0x31 // empty
	bfIPKeySparse       = 0x33 // u32 eta + (idx, scalar) pairs
	bfIPKeyBatch        = 0x34 // scalar matrix
	bfBOKeyBatch        = 0x36 // op + commitments + scalars
	bfClusterInfo       = 0x37 // empty
	bfPartialIPKeyBatch = 0x38 // scalar matrix
	bfPartialBOKeyBatch = 0x39 // op + commitments + scalars
	// Key-plane responses.
	bfPublicKey   = 0x40 // group + h elements
	bfKey         = 0x41 // one function key
	bfKeyBatch    = 0x42 // function keys, request order
	bfCluster     = 0x43 // node index, (T, N), group, joint key, share commitments
	bfPartialKeys = 0x44 // node index + partial keys [+ DLEQ proof]
)

// frameNames names every frame type; it is the enumerable form of the
// constant block above (tests walk it to demand a golden frame and a
// PROTOCOL.md row per type).
var frameNames = map[byte]string{
	bfPredict: "predict", bfSubmit: "submit", bfSubmitConv: "submit-conv",
	bfDone: "done", bfPredictTopK: "predict-topk",
	bfPreds: "preds", bfAck: "ack", bfErr: "err", bfTopK: "topk",
	bfFEIPPublic: "feip-public", bfFEBOPublic: "febo-public",
	bfIPKeySparse: "ip-key-sparse", bfIPKeyBatch: "ip-key-batch",
	bfBOKeyBatch: "bo-key-batch", bfClusterInfo: "cluster-info",
	bfPartialIPKeyBatch: "partial-ip-key-batch", bfPartialBOKeyBatch: "partial-bo-key-batch",
	bfPublicKey: "public-key", bfKey: "key", bfKeyBatch: "key-batch",
	bfCluster: "cluster", bfPartialKeys: "partial-keys",
}

// frameName names a frame type for errors and logs.
func frameName(ftype byte) string {
	if name, ok := frameNames[ftype]; ok {
		return name
	}
	return fmt.Sprintf("frame type %#x", ftype)
}

// binHeaderLen is the fixed frame header: u32 body length, u8 frame
// type, u64 request id, all big-endian.
const binHeaderLen = 4 + 1 + 8

// helloFrame builds the 8-byte client hello for the given version.
func helloFrame(version uint16) [8]byte {
	var h [8]byte
	copy(h[:4], codecMagic[:])
	binary.BigEndian.PutUint16(h[4:6], version)
	return h
}

// ackFrame builds the 8-byte server acknowledgement.
func ackFrame(version uint16) [8]byte {
	var h [8]byte
	copy(h[:4], codecAckMagic[:])
	binary.BigEndian.PutUint16(h[4:6], version)
	return h
}

// acceptHello reads the first 8 bytes of a just-accepted connection and
// acknowledges them if they are a hello for CodecVersion. Anything else is
// errBadHello: the caller closes the connection without reading further.
func acceptHello(conn net.Conn) error {
	var hdr [8]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return err
	}
	if hdr != helloFrame(CodecVersion) {
		return errBadHello
	}
	ack := ackFrame(CodecVersion)
	if _, err := conn.Write(ack[:]); err != nil {
		return fmt.Errorf("wire: writing codec ack: %w", err)
	}
	return nil
}

// readAck waits for the server's answer to a hello. A peer that closes
// instead, or answers anything but the ack for CodecVersion, surfaces as
// ErrCodecRefused.
func readAck(conn net.Conn) error {
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("%w: %w", ErrCodecRefused, err)
	}
	if [4]byte(ack[:4]) != codecAckMagic {
		return ErrCodecRefused
	}
	if v := binary.BigEndian.Uint16(ack[4:6]); v != CodecVersion {
		return fmt.Errorf("%w: server speaks version %d, client %d", ErrCodecRefused, v, CodecVersion)
	}
	return nil
}

// maxReadStep bounds how far a frame's declared length is trusted ahead
// of the bytes that have actually arrived: the body buffer grows by at
// most this much per read, so a header declaring MaxFrame followed by
// silence costs one step of heap, not a gigabyte.
const maxReadStep = 1 << 20

// binConn is the per-connection codec state: one reusable read buffer,
// one reusable write buffer, and a write mutex so response frames from
// concurrent request handlers interleave whole. It persists for the
// connection's lifetime — buffers grow to the workload's frame size once
// and are reused for every subsequent frame.
type binConn struct {
	conn net.Conn
	rbuf []byte

	wmu  sync.Mutex
	wbuf []byte
}

func newBinConn(conn net.Conn) *binConn { return &binConn{conn: conn} }

// readFrame reads one frame. The returned body aliases the connection's
// reusable buffer and is valid only until the next readFrame call; decode
// (which copies what it keeps) before reading on.
func (c *binConn) readFrame() (ftype byte, id uint64, body []byte, err error) {
	var hdr [binHeaderLen]byte
	if _, err := io.ReadFull(c.conn, hdr[:]); err != nil {
		return 0, 0, nil, err // io.EOF passes through for clean close detection
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n > MaxFrame {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	// Grow only as bytes arrive: each step allocates at most maxReadStep
	// beyond what the peer has really sent.
	body = c.rbuf[:0]
	for len(body) < n {
		step := min(n-len(body), maxReadStep)
		if cap(body)-len(body) < step {
			grown := make([]byte, len(body), max(2*cap(body), len(body)+step))
			copy(grown, body)
			body = grown
		}
		chunk := body[len(body) : len(body)+step]
		if _, err := io.ReadFull(c.conn, chunk); err != nil {
			return 0, 0, nil, fmt.Errorf("wire: reading frame body: %w", err)
		}
		body = body[:len(body)+step]
	}
	c.rbuf = body
	return hdr[4], binary.BigEndian.Uint64(hdr[5:13]), body, nil
}

// writeFrame writes one frame whose body is produced by fill appending to
// the reusable write buffer. The whole frame goes out in a single Write so
// concurrent writers never interleave partial frames.
func (c *binConn) writeFrame(ftype byte, id uint64, fill fillFunc) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := c.wbuf[:0]
	if cap(buf) < binHeaderLen {
		buf = make([]byte, 0, 512)
	}
	buf = buf[:binHeaderLen]
	var err error
	if buf, err = fill(buf); err != nil {
		return err
	}
	body := len(buf) - binHeaderLen
	if body > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(body))
	buf[4] = ftype
	binary.BigEndian.PutUint64(buf[5:13], id)
	c.wbuf = buf
	if _, err := c.conn.Write(buf); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// fillFunc appends a frame body to a frame buffer.
type fillFunc = func([]byte) ([]byte, error)

// emptyBody is the fill of a bodyless frame (bfDone, bfAck, …).
func emptyBody(b []byte) ([]byte, error) { return b, nil }

// rawBody is the fill of a frame whose body was encoded ahead of time —
// the quorum fan-out encodes a request once and stamps a header per node.
func rawBody(body []byte) fillFunc {
	return func(b []byte) ([]byte, error) { return append(b, body...), nil }
}

// writeErr writes a bfErr frame.
func (c *binConn) writeErr(id uint64, msg string, retryable bool) error {
	return c.writeFrame(bfErr, id, func(b []byte) ([]byte, error) {
		var flags byte
		if retryable {
			flags |= 1
		}
		b = append(b, flags)
		return append(b, msg...), nil
	})
}

// decodeErrBody unpacks a bfErr body.
func decodeErrBody(body []byte) (msg string, retryable bool, err error) {
	if len(body) < 1 {
		return "", false, errors.New("wire: truncated error frame")
	}
	return string(body[1:]), body[0]&1 != 0, nil
}
