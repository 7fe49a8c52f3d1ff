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
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
)

// PredictFunc evaluates one encrypted batch and returns per-sample
// (label-mapped) classes; service.Server.Predict satisfies it.
type PredictFunc func(*core.EncryptedBatch) ([]int, error)

// PredictionServer answers predict and predict-topk frames through a
// coalescing Dispatcher.
type PredictionServer struct {
	connServer
	dispatcher *Dispatcher
	panics     atomic.Uint64
	// accepted counts connections that completed the handshake, for /metrics.
	accepted atomic.Uint64
}

// NewCoalescingPredictionServer wraps a prediction function in the
// cross-client coalescing dispatcher: concurrent requests from any number
// of connections merge into shared evaluations (see Dispatcher), with
// queue-full backpressure reported to clients as the retryable ErrBusy.
// logger may be nil.
func NewCoalescingPredictionServer(predict PredictFunc, logger *log.Logger, opts DispatcherOptions) (*PredictionServer, error) {
	d, err := NewDispatcher(predict, opts)
	if err != nil {
		return nil, err
	}
	s := &PredictionServer{dispatcher: d}
	s.init("prediction server", logger)
	return s, nil
}

// Stats snapshots the coalescing dispatcher's counters.
func (s *PredictionServer) Stats() DispatcherStats {
	st := s.dispatcher.Stats()
	st.Panics += s.panics.Load()
	st.HandshakeRejected = s.badHellos.Load()
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

// maxInflightPerConn bounds concurrent evaluations spawned by one
// connection, so a single aggressive client cannot monopolize the
// dispatch queue. Further frames simply wait for a slot — TCP backpressure
// does the rest.
const maxInflightPerConn = 32

// handle serves one connection. Prediction frames are multiplexed: each
// runs on its own goroutine (bounded by maxInflightPerConn) and responses
// go out in completion order, matched by request id.
func (s *PredictionServer) handle(bc *binConn) {
	s.accepted.Add(1)
	sem := make(chan struct{}, maxInflightPerConn)
	var wg sync.WaitGroup
	defer wg.Wait() // drain in-flight evaluations before the conn closes
	// answer evaluates one decoded request off the read loop.
	answer := func(id uint64, what string, eval func() (byte, fillFunc, error)) {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			rtype, fill, err := eval()
			var werr error
			if err != nil {
				werr = bc.writeErr(id, fmt.Sprintf("%s failed: %v", what, err), errors.Is(err, ErrBusy))
			} else {
				werr = bc.writeFrame(rtype, id, fill)
			}
			if werr != nil {
				s.logIO("write to", bc.conn, werr)
			}
		}()
	}
	s.frames(bc, func(ftype byte, id uint64, body []byte) (bool, error) {
		switch ftype {
		case bfPredict:
			enc, err := decodeEncryptedBatch(body)
			if err != nil {
				return false, bc.writeErr(id, fmt.Sprintf("decoding prediction batch: %v", err), false)
			}
			answer(id, "prediction", func() (byte, fillFunc, error) {
				preds, err := s.evaluate(enc)
				return bfPreds, func(b []byte) ([]byte, error) { return appendPreds(b, preds) }, err
			})
		case bfPredictTopK:
			k, sp, err := decodeSparseBatch(body)
			if err != nil {
				return false, bc.writeErr(id, fmt.Sprintf("decoding sparse prediction batch: %v", err), false)
			}
			answer(id, "top-k prediction", func() (byte, fillFunc, error) {
				hits, err := s.evaluateTopK(sp, k)
				return bfTopK, func(b []byte) ([]byte, error) { return appendTopKHits(b, hits) }, err
			})
		default:
			return false, bc.writeErr(id, "prediction server cannot serve "+frameName(ftype), false)
		}
		return false, nil
	})
}

// evaluate runs one decoded batch through the dispatcher with panic
// containment: a panicking evaluation (a model/engine bug tripped by one
// request) must cost that request an error response, not the whole serving
// process.
func (s *PredictionServer) evaluate(enc *core.EncryptedBatch) (preds []int, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.log.Printf("prediction server: panic evaluating batch: %v\n%s", r, debug.Stack())
			preds, err = nil, errors.New("internal error")
		}
	}()
	// Background context: the framed request/response protocol gives
	// no way to observe a client disconnect while its request is in
	// flight, so a vanished client's request is evaluated and the
	// write error then tears the connection down. Dispatcher shutdown
	// is covered by its own done channel.
	return s.dispatcher.Do(context.Background(), enc)
}

// evaluateTopK runs one decoded sparse batch through the dispatcher with
// panic containment. A dispatcher built without DispatcherOptions.TopK
// refuses the request.
func (s *PredictionServer) evaluateTopK(sp *core.SparseBatch, k int) (hits [][]dlog.TopKHit, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.log.Printf("prediction server: panic evaluating sparse batch: %v\n%s", r, debug.Stack())
			hits, err = nil, errors.New("internal error")
		}
	}()
	return s.dispatcher.DoTopK(context.Background(), sp, k)
}
