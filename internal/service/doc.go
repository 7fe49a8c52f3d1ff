// Package service implements the training server of Fig. 1 as a reusable,
// testable component: it collects encrypted batches from any number of
// distributed clients over TCP, trains a neural network on them through
// the CryptoNN framework (Algorithm 2), requesting function-derived keys
// from the authority as training proceeds, and then serves FE-based
// predictions (§III-D) over the trained model.
//
// The package composes internal/wire (transport), internal/core (the
// secure training loop) and internal/nn (the model) into one lifecycle:
//
//	srv, _ := service.New(keys, service.Config{Features: 784, Classes: 10, Expect: 2})
//	report, _ := srv.Run(ctx, trainListener)
//	_ = srv.ServePredictions(ctx, predictListener)
//
// Run blocks until the expected number of client submissions arrives,
// trains for the configured number of epochs, and returns a Report. The
// trained parameters stay on the server — they are plaintext by the
// paper's design; only the training data and labels are ever encrypted.
//
// # Session and concurrency contract
//
// A Server owns one securemat.Engine for its whole lifetime, so public keys
// are fetched once, and one core.Trainer, which keeps the trained weights'
// function keys across prediction requests — Algorithm 1's
// pre-process-key-derivative step runs exactly once per trained W.
// ServePredictions runs the serving path as a throughput engine: the
// wire layer's coalescing dispatcher merges concurrent clients' batches
// into shared evaluations at its default width and queue bound.
// Training, Predict and PredictTopK all run on the server's one
// core.Trainer, which sizes its own discrete-log solver. A prediction's
// bound covers the feed-forward only, so the solver table does not grow
// however wide requests coalesce, and both serving paths share whichever
// solver the trainer holds. Neither path re-encodes W per request: the
// dense path's encoded weights are the trainer's, rebuilt whenever W's
// contents differ (see internal/core), and PredictTopK's clamp-encoded
// head — millions of weights, too many to compare on every request — is
// built on its first request and dropped whenever the server trains.
// Predict itself is safe for concurrent use; evaluations and training
// steps serialize on an internal lock because the model's plaintext
// forward pass caches per-batch activations on its layers. Run and
// ServePredictions are phases of one lifecycle, not concurrent peers:
// serve only after training completes.
package service
