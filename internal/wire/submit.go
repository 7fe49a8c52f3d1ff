package wire

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"

	"cryptonn/internal/core"
)

// Encrypted-batch submission: the client → server data flow of Fig. 1.
// Clients push core.EncryptedBatch / core.EncryptedConvBatch frames
// (ClientConn.SubmitBatches); the training server collects them from any
// number of distributed data owners ("the model can be trained over
// multiple, distributed data sources" — §III-A) as long as all encrypted
// under the same authority.

// TrainingServer accepts encrypted batches from distributed clients. It
// only stores ciphertext batches — the training loop itself runs on top
// through the usual core.Trainer.
type TrainingServer struct {
	connServer

	mu          sync.Mutex
	batches     []*core.EncryptedBatch
	convBatches []*core.EncryptedConvBatch
	done        int
	doneCh      chan struct{}
}

// NewTrainingServer creates a collector; logger may be nil.
func NewTrainingServer(logger *log.Logger) *TrainingServer {
	s := &TrainingServer{doneCh: make(chan struct{}, 1)}
	s.init("training server", logger)
	return s
}

// TrainingServerStats counts server-side incidents.
type TrainingServerStats struct {
	// Panics is the number of frames whose handling panicked and was
	// recovered (the connection survived and got an error response).
	Panics uint64
	// HandshakeRejected is the number of connections closed because they
	// did not open with a valid hello.
	HandshakeRejected uint64
}

// Stats returns a snapshot of server incident counters.
func (s *TrainingServer) Stats() TrainingServerStats {
	return TrainingServerStats{Panics: s.panics.Load(), HandshakeRejected: s.badHellos.Load()}
}

// Submissions returns the number of completed client submissions (Done
// frames received).
func (s *TrainingServer) Submissions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// WaitSubmissions blocks until at least n clients have completed their
// submission, or the context is cancelled.
func (s *TrainingServer) WaitSubmissions(ctx context.Context, n int) error {
	for {
		s.mu.Lock()
		have := s.done
		s.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.doneCh:
		}
	}
}

// signalDone wakes one WaitSubmissions poller; the buffered channel
// coalesces bursts.
func (s *TrainingServer) signalDone() {
	select {
	case s.doneCh <- struct{}{}:
	default:
	}
}

// Batches returns the dense batches received so far.
func (s *TrainingServer) Batches() []*core.EncryptedBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*core.EncryptedBatch, len(s.batches))
	copy(out, s.batches)
	return out
}

// ConvBatches returns the convolutional batches received so far.
func (s *TrainingServer) ConvBatches() []*core.EncryptedConvBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*core.EncryptedConvBatch, len(s.convBatches))
	copy(out, s.convBatches)
	return out
}

// Serve accepts submissions until the context is cancelled or Close is
// called. Submission is a serial protocol (batch, ack, batch, ack, …,
// done), so frames are handled inline and the connection ends at done.
func (s *TrainingServer) Serve(ctx context.Context, l net.Listener) error {
	return s.serve(ctx, l, func(bc *binConn) {
		s.frames(bc, func(ftype byte, id uint64, body []byte) (done bool, werr error) {
			if err := s.barrier("handling "+frameName(ftype), func() error {
				done, werr = s.handleFrame(bc, ftype, id, body)
				return nil
			}); err != nil {
				return false, bc.writeErr(id, "submission failed: "+err.Error(), false)
			}
			return done, werr
		})
	})
}

// validateSubmission holds a dense training batch to its own header before
// it is stored: the invariants of a prediction batch for X, and the same for
// the labels. A frame is free to declare a matrix with no columns — the
// decoder rightly reads zero ciphertexts for it — so this is where a batch of
// N samples with nothing to train on is refused, not inside the trainer.
func validateSubmission(b *core.EncryptedBatch) error {
	if err := validatePredictBatch(b); err != nil {
		return err
	}
	return validateLabels(b.Y, b.Classes, b.N)
}

// validateConvSubmission is validateSubmission for a convolutional batch. The
// decoder has already cut the window and position lists to the frame's own
// geometry (and core.checkConvBatch holds them to the model's), so what is
// left to state is one list per sample and the labels.
func validateConvSubmission(b *core.EncryptedConvBatch) error {
	if b.N <= 0 || len(b.Windows) != b.N || len(b.Positions) != b.N {
		return fmt.Errorf("wire: conv batch claims %d samples but carries %d window and %d position lists", b.N, len(b.Windows), len(b.Positions))
	}
	return validateLabels(b.Y, b.Classes, b.N)
}

// decodeSubmitConv is an indirection over decodeConvBatch so tests can
// inject a panicking decoder and prove handleFrame contains it.
var decodeSubmitConv = decodeConvBatch

// handleFrame serves one frame; done reports the closing bfDone. It runs
// behind the panic barrier: a panic reachable from decoding or storing a
// frame (a codec bug tripped by one client's bytes) costs that frame an
// "internal error" response, not the whole training process, and the
// connection stays alive.
func (s *TrainingServer) handleFrame(bc *binConn, ftype byte, id uint64, body []byte) (done bool, werr error) {
	switch ftype {
	case bfSubmit:
		b, err := decodeEncryptedBatch(body)
		if err != nil {
			return false, bc.writeErr(id, fmt.Sprintf("decoding batch: %v", err), false)
		}
		if err := validateSubmission(b); err != nil {
			return false, bc.writeErr(id, err.Error(), false)
		}
		s.mu.Lock()
		s.batches = append(s.batches, b)
		s.mu.Unlock()
		return false, bc.writeFrame(bfAck, id, emptyBody)
	case bfSubmitConv:
		b, err := decodeSubmitConv(body)
		if err != nil {
			return false, bc.writeErr(id, fmt.Sprintf("decoding conv batch: %v", err), false)
		}
		if err := validateConvSubmission(b); err != nil {
			return false, bc.writeErr(id, err.Error(), false)
		}
		s.mu.Lock()
		s.convBatches = append(s.convBatches, b)
		s.mu.Unlock()
		return false, bc.writeFrame(bfAck, id, emptyBody)
	case bfDone:
		// Ack before counting: the count releases WaitSubmissions, whose
		// caller may close this connection at once.
		werr = bc.writeFrame(bfAck, id, emptyBody)
		s.mu.Lock()
		s.done++
		s.mu.Unlock()
		s.signalDone()
		return true, werr
	default:
		return false, bc.writeErr(id, "training server cannot serve "+frameName(ftype), false)
	}
}
