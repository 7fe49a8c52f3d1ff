// Package wire implements the network protocol connecting the three
// CryptoNN entities of Fig. 1 — the full specification, with the frame
// table and sequence diagrams, lives in docs/PROTOCOL.md:
//
//   - authority ⇄ server/client: public-key distribution and
//     function-derived key issuance for Algorithm 1's two
//     pre-process-key-derivative steps (AuthorityServer +
//     RemoteKeyService / QuorumKeyService, batched variants included);
//   - client → server: encrypted training-data submission, Algorithm 1's
//     pre-process-encryption output in transit (ClientConn.SubmitBatches +
//     TrainingServer);
//   - client ⇄ server: encrypted prediction (ClientConn.Predict +
//     PredictionServer), the secure-computation step exposed as a
//     service.
//
// Every connection opens with a version hello and then carries binary
// frames (codec.go, binenc.go): a 13-byte header with a frame type and a
// request id, and fixed-layout bodies whose every count is checked against
// the bytes actually present before anything is allocated. Connections
// multiplex — ClientConn is the one client-side exchange implementation —
// while the authority and training servers answer a connection's frames
// in order. One key connection per caller is enough: no key path has two
// requests in flight, a step's keys travel as one batch frame.
//
// # Serving throughput: cross-client batch coalescing
//
// A PredictionServer (NewCoalescingPredictionServer) sends dense predict
// and sparse predict-topk requests down one request path into a
// coalescing dispatcher, which greedily merges the compatible batches
// already queued (up to MaxCoalescedSamples) into a single evaluation and
// hands each caller its slice of the results. Backpressure is explicit: a
// full dispatch queue rejects with the typed, retryable ErrBusy, which
// travels the wire as an err frame's retryable flag and resurfaces as
// ErrBusy from ClientConn.Predict — clients back off and retry.
// PredictionServer.Stats exposes the counters (requests, rejections,
// coalesced batch widths, queue depth, latency percentiles).
//
// # Configuration
//
// Each endpoint has one constructor: NewAuthorityServer, NewNodeServer,
// NewTrainingServer and NewCoalescingPredictionServer serve;
// DialKeyService (NewRemoteKeyService), DialQuorumKeyService
// (NewQuorumKeyService) and Dial (NewClientConn) connect. What no
// deployment tunes is a constant: the authority's request cap
// (DefaultMaxEta, 2²⁰), the 5 s deadline on every key exchange with a
// single authority or a quorum node (whose dial it bounds too), and a
// quorum node's retry budget (3 attempts, backoff from 50 ms doubling to
// at most 2 s).
// The settings left are QuorumOptions' HedgeDelay and Logger and
// DispatcherOptions' merge width, queue bound and top-k evaluator.
//
// # Concurrency and validation contract
//
// Servers handle each connection on its own goroutine and may be closed
// from any goroutine; the dispatcher's single dispatch loop owns all
// prediction evaluation, so the PredictFunc it drives need not be
// concurrency-safe. A prediction connection's requests end with it: the
// dispatcher drops a departed client's queued requests. Every server runs
// what one peer's bytes can reach — decoding, handling, evaluation —
// behind one panic barrier (connServer.barrier), which recovers, counts
// into the server's Stats().Panics, logs the stack and answers "internal
// error"; no panic costs a connection or the process. RemoteKeyService
// and ClientConn are safe for concurrent use. Every byte from a socket is
// hostile until validated: a listener closes a connection that does not
// open with the hello, decoders refuse malformed or over-limit frames
// with one err frame, and every decoded key and ciphertext is validated
// for group membership before use — a malformed or malicious peer cannot
// inject non-elements into the crypto layer.
package wire
