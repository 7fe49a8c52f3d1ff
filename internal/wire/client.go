package wire

// ClientConn is the client side of a connection (codec.go), and the one
// implementation of "write a request frame, wait for the frame with the
// same id": predictions, submissions, RemoteKeyService and the quorum
// client's per-node exchanges all go through call. Connections
// multiplex — any number of requests may be in flight, tagged with ids,
// and a reader goroutine demultiplexes the out-of-order responses.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
)

// Codec names the wire codec. There is exactly one; the type survives
// only because NewClientConn's signature is frozen by the benchmark
// harness.
type Codec string

// CodecBinary is the wire codec.
const CodecBinary Codec = "binary"

// binReply is one demultiplexed response frame. Body is a copy — the read
// buffer is reused for the next frame.
type binReply struct {
	ftype byte
	body  []byte
	err   error
}

// ClientConn is a client connection. Safe for concurrent use; concurrent
// requests pipeline.
type ClientConn struct {
	conn net.Conn
	bc   *binConn

	// The hello goes out on first use; ready closes once the server's ack
	// arrived or the handshake failed (hsErr, written before the close).
	startOnce sync.Once
	ready     chan struct{}
	hsErr     error

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan binReply
	readErr error

	closeOnce sync.Once
	closeErr  error
}

// Dial connects to a server and completes the version handshake.
func Dial(addr string) (*ClientConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	cc, err := NewClientConn(conn, CodecBinary)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return cc, nil
}

// NewClientConn completes the version handshake over an established
// connection. On error the connection is unusable and should be closed by
// the caller.
func NewClientConn(conn net.Conn, codec Codec) (*ClientConn, error) {
	if codec != CodecBinary {
		return nil, fmt.Errorf("wire: unknown codec %q", codec)
	}
	c := newClientConn(conn)
	c.start()
	<-c.ready
	return c, c.hsErr
}

// newClientConn wraps a connection without touching it: the handshake
// starts with the first call, so its failure surfaces there.
func newClientConn(conn net.Conn) *ClientConn {
	return &ClientConn{
		conn:    conn,
		bc:      newBinConn(conn),
		ready:   make(chan struct{}),
		pending: make(map[uint64]chan binReply),
	}
}

// Close closes the connection; in-flight requests fail.
func (c *ClientConn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.conn.Close() })
	return c.closeErr
}

// start sends the hello and launches the reader, once.
func (c *ClientConn) start() {
	c.startOnce.Do(func() {
		hello := helloFrame(CodecVersion)
		if _, err := c.conn.Write(hello[:]); err != nil {
			c.handshook(fmt.Errorf("wire: writing codec hello: %w", err))
			return
		}
		go c.readLoop()
	})
}

// handshook publishes the handshake's outcome.
func (c *ClientConn) handshook(err error) {
	if c.hsErr = err; err != nil {
		c.fail(err)
	}
	close(c.ready)
}

// fail records a fatal connection error, the first one reported, and fails
// every pending request.
func (c *ClientConn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr == nil {
		c.readErr = err
	}
	for id, ch := range c.pending {
		ch <- binReply{err: err}
		delete(c.pending, id)
	}
}

// readLoop waits for the ack, then demultiplexes response frames to their
// callers. Any read error fails every pending and future request.
func (c *ClientConn) readLoop() {
	err := readAck(c.conn)
	c.handshook(err)
	for err == nil {
		var ftype byte
		var id uint64
		var body []byte
		if ftype, id, body, err = c.bc.readFrame(); err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok { // else the caller gave up (cancelled); drop the late reply
			ch <- binReply{ftype: ftype, body: append([]byte(nil), body...)}
		}
	}
}

// call writes one request frame and waits for the frame echoing its id.
// Cancellation abandons only this request — the connection and its other
// in-flight requests stay healthy, and the late reply is discarded.
func (c *ClientConn) call(ctx context.Context, ftype byte, fill fillFunc) (binReply, error) {
	if err := ctx.Err(); err != nil {
		return binReply{}, err
	}
	c.start()
	ch := make(chan binReply, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return binReply{}, fmt.Errorf("wire: connection failed: %w", err)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()
	forget := func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}
	if err := c.bc.writeFrame(ftype, id, fill); err != nil {
		if c.bc.broken() != nil {
			// The failed Write closed the connection: every request whose
			// frame it carried, or that was queued behind it, fails with it.
			c.fail(err)
		} else {
			forget() // fill failed; the frames queued around it are intact
		}
		return binReply{}, err
	}
	select {
	case rep := <-ch:
		return rep, rep.err
	case <-ctx.Done():
		forget()
		// The reply may have been delivered between Done and forget.
		select {
		case rep := <-ch:
			return rep, rep.err
		default:
		}
		return binReply{}, ctx.Err()
	}
}

// withTimeout bounds ctx (nil for none) by a per-exchange timeout (zero
// for none).
func withTimeout(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// request runs one exchange and demands the given response type, turning
// a bfErr reply into a Go error (ErrBusy when retryable).
func (c *ClientConn) request(ctx context.Context, ftype, want byte, fill fillFunc) ([]byte, error) {
	rep, err := c.call(ctx, ftype, fill)
	if err != nil {
		return nil, fmt.Errorf("wire: %s exchange: %w", frameName(ftype), err)
	}
	switch rep.ftype {
	case want:
		return rep.body, nil
	case bfErr:
		msg, retryable, err := decodeErrBody(rep.body)
		if err != nil {
			return nil, err
		}
		if retryable {
			return nil, fmt.Errorf("%w: server rejected %s: %s", ErrBusy, frameName(ftype), msg)
		}
		return nil, &refusalError{ftype: ftype, msg: msg}
	default:
		return nil, fmt.Errorf("wire: unexpected %s in answer to %s", frameName(rep.ftype), frameName(ftype))
	}
}

// refusalError is a server's protocol-level rejection — the exchange
// succeeded, the answer is "no". Never worth retrying unmodified.
type refusalError struct {
	ftype byte
	msg   string
}

func (e *refusalError) Error() string {
	return fmt.Sprintf("wire: server rejected %s: %s", frameName(e.ftype), e.msg)
}

// Predict submits one encrypted batch for prediction. A nil context and
// zero timeout block without bound.
func (c *ClientConn) Predict(ctx context.Context, enc *core.EncryptedBatch, timeout time.Duration) ([]int, error) {
	return predict(ctx, c, timeout, bfPredict, bfPreds, enc.N, func(b []byte) ([]byte, error) {
		return appendEncryptedBatch(b, enc)
	}, decodePreds)
}

// PredictTopK submits one coordinate-form sparse batch and returns each
// sample's k largest logits as descending (label, value) pairs. A nil
// context and zero timeout block without bound.
func (c *ClientConn) PredictTopK(ctx context.Context, sp *core.SparseBatch, k int, timeout time.Duration) ([][]dlog.TopKHit, error) {
	return predict(ctx, c, timeout, bfPredictTopK, bfTopK, sp.N, func(b []byte) ([]byte, error) {
		return appendSparseBatch(b, k, sp)
	}, decodeTopKHits)
}

// predict runs one prediction exchange of either kind and holds the
// answer to one result per sample.
func predict[T any](ctx context.Context, c *ClientConn, timeout time.Duration, ftype, want byte, n int, fill fillFunc, decode func([]byte) ([]T, error)) ([]T, error) {
	ctx, cancel := withTimeout(ctx, timeout)
	defer cancel()
	body, err := c.request(ctx, ftype, want, fill)
	if err != nil {
		return nil, err
	}
	out, err := decode(body)
	if err != nil {
		return nil, err
	}
	if len(out) != n {
		return nil, fmt.Errorf("wire: %d results for %d samples", len(out), n)
	}
	return out, nil
}

// SubmitBatches submits training batches followed by the done marker.
func (c *ClientConn) SubmitBatches(batches []*core.EncryptedBatch) error {
	return submit(c, bfSubmit, "batch", batches, appendEncryptedBatch)
}

// SubmitConvBatches submits convolutional training batches followed by
// the done marker.
func (c *ClientConn) SubmitConvBatches(batches []*core.EncryptedConvBatch) error {
	return submit(c, bfSubmitConv, "conv batch", batches, appendConvBatch)
}

// submit sends each batch as one ftype frame, then the done marker.
func submit[B any](c *ClientConn, ftype byte, what string, batches []B, encode func([]byte, B) ([]byte, error)) error {
	for i, b := range batches {
		_, err := c.request(context.TODO(), ftype, bfAck, func(buf []byte) ([]byte, error) { return encode(buf, b) })
		if err != nil {
			return fmt.Errorf("wire: submitting %s %d: %w", what, i, err)
		}
	}
	_, err := c.request(context.TODO(), bfDone, bfAck, emptyBody)
	return err
}
