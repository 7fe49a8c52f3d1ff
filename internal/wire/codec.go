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
	"bufio"
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
// alone, where it now appends every node's public share vector; version 4
// sent a submission's labels with FEIP columns, version 5 as elements only.
const CodecVersion = 5

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

// connReadBuffer sizes each connection's read buffer. One read fills it, so
// a frame header, its body and the frames queued behind them cost one
// syscall; bodies larger than the buffer are read straight into the frame
// buffer. 16 KiB holds a burst of key requests and replies; 64 KiB cost
// keys_quorum 9 % of its resident set.
const connReadBuffer = 16 << 10

// binConn is the per-connection codec state: a buffered reader, one
// reusable frame buffer for reads, and the pending write buffer every
// writer of the connection appends its frames to. It persists for the
// connection's lifetime — buffers grow to the workload's frame size once
// and are reused for every subsequent frame.
//
// Writes are group-committed, with no timer and no goroutine: a writer
// appends its whole frame to pending under wmu and, unless a Write is
// already in flight, writes everything pending in one Write. A frame queued
// while a Write is in flight waits for it and then goes out with the other
// frames queued meanwhile, so concurrent frames share syscalls and never
// interleave. A Write that fails closes the connection (the peer must not
// parse what follows a torn frame), drops what was pending and fails every
// writer whose frame it carried or that writes later.
type binConn struct {
	conn  net.Conn
	r     *bufio.Reader
	rbuf  []byte
	wmu   sync.Mutex
	wdone sync.Cond // signalled when an in-flight Write returns
	// pending holds the frames no Write has taken yet; spare is the other
	// buffer, taken as pending while a Write sends the current one.
	pending, spare []byte
	// taken counts the Writes started, written those that succeeded; a
	// frame in pending goes out with Write number taken+1. held is the
	// Write that carries the last frame holdFrame queued.
	taken, written, held uint64
	writing              bool  // a Write is in flight
	werr                 error // the Write failure that broke the connection
}

func newBinConn(conn net.Conn) *binConn {
	c := &binConn{conn: conn, r: bufio.NewReaderSize(conn, connReadBuffer)}
	c.wdone.L = &c.wmu
	return c
}

// readFrame reads one frame. The returned body aliases the connection's
// reusable buffer and is valid only until the next readFrame call; decode
// (which copies what it keeps) before reading on.
func (c *binConn) readFrame() (ftype byte, id uint64, body []byte, err error) {
	var hdr [binHeaderLen]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
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
		if _, err := io.ReadFull(c.r, chunk); err != nil {
			return 0, 0, nil, fmt.Errorf("wire: reading frame body: %w", err)
		}
		body = body[:len(body)+step]
	}
	c.rbuf = body
	return hdr[4], binary.BigEndian.Uint64(hdr[5:13]), body, nil
}

// frameBuffered reports whether a whole frame has already arrived, so the
// next readFrame cannot block.
func (c *binConn) frameBuffered() bool {
	n := c.r.Buffered()
	if n < binHeaderLen {
		return false
	}
	hdr, _ := c.r.Peek(binHeaderLen)
	return n-binHeaderLen >= int(binary.BigEndian.Uint32(hdr[:4]))
}

// writeFrame writes one frame whose body is produced by fill appending to
// the pending buffer. It returns once the Write that carried the frame has
// returned, its own or another writer's.
func (c *binConn) writeFrame(ftype byte, id uint64, fill fillFunc) error {
	c.wmu.Lock()
	if err := c.appendFrame(ftype, id, fill); err != nil {
		c.wmu.Unlock()
		return err
	}
	return c.commitLocked(c.taken + 1)
}

// holdFrame queues one frame without writing it: it goes out with the next
// Write on the connection, or with commitHeld. Held bytes are bounded: once
// pending reaches connReadBuffer it is written at once, so a burst of small
// requests cannot make the connection hold all of their replies.
func (c *binConn) holdFrame(ftype byte, id uint64, fill fillFunc) error {
	c.wmu.Lock()
	if err := c.appendFrame(ftype, id, fill); err != nil {
		c.wmu.Unlock()
		return err
	}
	c.held = c.taken + 1
	if len(c.pending) < connReadBuffer {
		c.wmu.Unlock()
		return nil
	}
	return c.commitLocked(c.held)
}

// appendFrame appends one whole frame to pending; wmu is held. A failing
// fill or an oversized body leaves pending as it was, so the frames queued
// before it survive.
func (c *binConn) appendFrame(ftype byte, id uint64, fill fillFunc) error {
	if c.werr != nil {
		return c.werr
	}
	start := len(c.pending)
	buf, err := fill(append(c.pending, make([]byte, binHeaderLen)...))
	if err != nil {
		return err
	}
	body := len(buf) - start - binHeaderLen
	if body > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body)
	}
	hdr := buf[start : start+binHeaderLen]
	binary.BigEndian.PutUint32(hdr[:4], uint32(body))
	hdr[4] = ftype
	binary.BigEndian.PutUint64(hdr[5:13], id)
	c.pending = buf
	return nil
}

// commitHeld writes the frames holdFrame queued that no Write has carried
// yet. It waits on no other writer's frames: with nothing of its own held,
// it returns at once. A server commits its held replies before a read that
// could block.
func (c *binConn) commitHeld() error {
	c.wmu.Lock()
	return c.commitLocked(c.held)
}

// flush returns once every frame queued so far is on the socket or the
// connection has failed, waiting out a Write in flight. A server flushes
// before it closes the connection.
func (c *binConn) flush() error {
	c.wmu.Lock()
	last := c.taken
	if len(c.pending) > 0 {
		last++
	}
	return c.commitLocked(last)
}

// commitLocked is the group commit. Called with wmu held, it returns with
// wmu released once Write number last has returned. While another Write is
// in flight it waits; otherwise it leads: it takes everything pending as
// the next Write, swapping buffers so later frames queue while that Write
// runs. A leader writes its own frame and then, if frames queued behind it,
// those too, so they go out without waiting for their writers to wake; it
// writes no more than that, so its caller waits for at most three Writes
// (the one in flight, its own, the next). Frames queued after that go out
// with the next waiting writer that leads.
func (c *binConn) commitLocked(last uint64) error {
	defer c.wmu.Unlock()
	for writes := 0; c.written < last || (writes == 1 && len(c.pending) > 0); {
		if c.werr != nil {
			return c.werr
		}
		if c.writing {
			c.wdone.Wait()
			continue
		}
		buf := c.pending
		c.pending, c.spare = c.spare[:0], nil
		c.taken++
		c.writing = true
		c.wmu.Unlock()
		_, err := c.conn.Write(buf)
		writes++
		c.wmu.Lock()
		c.writing = false
		if err != nil {
			c.werr = fmt.Errorf("wire: writing frame: %w", err)
			c.pending = nil
			_ = c.conn.Close()
		} else {
			c.written++
			if len(c.pending) == 0 {
				// Nothing queued meanwhile: a lone writer keeps one buffer.
				buf, c.pending = c.pending, buf[:0]
			}
			// At most one buffer keeps a large frame's capacity.
			if cap(buf) <= connReadBuffer {
				c.spare = buf[:0]
			}
		}
		c.wdone.Broadcast()
	}
	return nil
}

// broken returns the Write failure that closed the connection, if any.
func (c *binConn) broken() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.werr
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
	return c.writeFrame(bfErr, id, errBody(msg, retryable))
}

// errBody is the fill of a bfErr frame.
func errBody(msg string, retryable bool) fillFunc {
	return func(b []byte) ([]byte, error) {
		var flags byte
		if retryable {
			flags |= 1
		}
		b = append(b, flags)
		return append(b, msg...), nil
	}
}

// decodeErrBody unpacks a bfErr body.
func decodeErrBody(body []byte) (msg string, retryable bool, err error) {
	if len(body) < 1 {
		return "", false, errors.New("wire: truncated error frame")
	}
	return string(body[1:]), body[0]&1 != 0, nil
}
