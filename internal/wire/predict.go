package wire

// FE-based prediction over the network (§III-D): after training, the
// server can answer prediction requests over encrypted inputs. The
// client encrypts a batch exactly as for training (the labels may be
// all-zero placeholders — only the input ciphertexts are touched), sends
// one predict frame (ClientConn.Predict), and receives per-sample classes.
// If the client used a label map, the returned classes are masked and only
// the client can translate them — the paper's "flexible privacy setting".

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"cryptonn/internal/core"
)

// PredictFunc evaluates one encrypted batch and returns per-sample
// (label-mapped) classes; service.Server.Predict satisfies it.
type PredictFunc func(*core.EncryptedBatch) ([]int, error)

// PredictionServer answers predict and predict-topk frames through a
// coalescing dispatcher.
type PredictionServer struct {
	connServer
	dispatcher *dispatcher
	// accepted counts connections that completed the handshake, for /metrics.
	accepted atomic.Uint64
}

// NewCoalescingPredictionServer wraps a prediction function in the
// cross-client coalescing dispatcher: concurrent requests from any number
// of connections merge into shared evaluations (see coalesce.go), with
// queue-full backpressure reported to clients as the retryable ErrBusy.
// logger may be nil.
func NewCoalescingPredictionServer(predict PredictFunc, logger *log.Logger, opts DispatcherOptions) (*PredictionServer, error) {
	s := &PredictionServer{}
	s.init("prediction server", logger)
	d, err := newDispatcher(&s.connServer, predict, opts)
	if err != nil {
		return nil, err
	}
	s.dispatcher = d
	return s, nil
}

// Stats snapshots the coalescing dispatcher's counters.
func (s *PredictionServer) Stats() DispatcherStats {
	st := s.dispatcher.Stats()
	st.Panics, st.HandshakeRejected = s.panics.Load(), s.badHellos.Load()
	return st
}

// Serve accepts prediction connections until the context is cancelled or
// Close is called. Each connection may carry any number of requests.
func (s *PredictionServer) Serve(ctx context.Context, l net.Listener) error {
	err := s.serve(ctx, l, s.handle)
	// Serving is over and live connections have drained, so nothing can
	// still be enqueuing: release the dispatch loop too.
	_ = s.dispatcher.Close()
	return err
}

// Close stops accepting and closes live connections.
func (s *PredictionServer) Close() error {
	err := s.connServer.Close()
	// Queued requests fail with net.ErrClosed; the round being
	// evaluated completes first (its callers are mid-write anyway).
	_ = s.dispatcher.Close()
	return err
}

// maxInflightPerConn bounds concurrent requests spawned by one
// connection, so a single aggressive client cannot monopolize the
// dispatch queue. Further frames simply wait for a slot — TCP backpressure
// does the rest.
const maxInflightPerConn = 32

// decodePredictFrame turns a predict or predict-topk frame into a request.
// It is a variable so tests can inject a panicking decoder and prove the
// barrier contains it.
var decodePredictFrame = func(ftype byte, body []byte) (*pendingPredict, error) {
	switch ftype {
	case bfPredict:
		enc, err := decodeEncryptedBatch(body)
		if err != nil {
			return nil, fmt.Errorf("decoding prediction batch: %w", err)
		}
		return &pendingPredict{enc: enc}, nil
	case bfPredictTopK:
		k, sp, err := decodeSparseBatch(body)
		if err != nil {
			return nil, fmt.Errorf("decoding sparse prediction batch: %w", err)
		}
		return &pendingPredict{sp: sp, k: k}, nil
	}
	return nil, errors.New("prediction server cannot serve " + frameName(ftype))
}

// handle serves one connection. Prediction frames are multiplexed: each
// is decoded on the read loop, then submitted and answered on its own
// goroutine (bounded by maxInflightPerConn), so responses go out in
// completion order, matched by request id. The connection's context ends
// with its read loop, so the dispatcher drops a departed client's queued
// requests instead of evaluating them.
func (s *PredictionServer) handle(bc *binConn) {
	s.accepted.Add(1)
	ctx, cancel := context.WithCancel(context.Background())
	sem := make(chan struct{}, maxInflightPerConn)
	var wg sync.WaitGroup
	defer wg.Wait() // drain in-flight requests before the conn closes
	defer cancel()  // first: the departed client's queued requests are dropped
	s.frames(bc, func(ftype byte, id uint64, body []byte) (bool, error) {
		var p *pendingPredict
		if err := s.barrier("decoding "+frameName(ftype), func() (err error) {
			p, err = decodePredictFrame(ftype, body)
			return err
		}); err != nil {
			return false, bc.writeErr(id, err.Error(), false)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			s.answer(ctx, bc, id, p)
		}()
		return false, nil
	})
}

// answer submits one decoded request behind the panic barrier and writes
// its response frame. Nobody reads the answers of a connection whose read
// loop has ended, so those are not written.
func (s *PredictionServer) answer(ctx context.Context, bc *binConn, id uint64, p *pendingPredict) {
	what, rtype := "prediction", byte(bfPreds)
	if p.sp != nil {
		what, rtype = "top-k prediction", bfTopK
	}
	var r predictResult
	err := s.barrier("answering a "+what, func() error {
		r = s.dispatcher.submit(ctx, p)
		return r.err
	})
	if ctx.Err() != nil {
		return
	}
	var werr error
	if err != nil {
		werr = bc.writeErr(id, fmt.Sprintf("%s failed: %v", what, err), errors.Is(err, ErrBusy))
	} else {
		werr = bc.writeFrame(rtype, id, func(b []byte) ([]byte, error) {
			if p.sp != nil {
				return appendTopKHits(b, r.hits)
			}
			return appendPreds(b, r.preds)
		})
	}
	if werr != nil {
		s.logIO("write to", bc.conn, werr)
	}
}
