package wire

// Cross-client batch coalescing for prediction serving.
//
// Every layer below the socket is batch-friendly — securemat evaluates a
// whole encrypted matrix per call, amortizing the per-evaluation fixed
// costs (weight encoding, per-row key recodings, the per-matrix batched
// modular inversion, the model's plaintext forward pass) over its columns
// — but a connection handler that answers one request at a time re-pays
// those costs per request. The dispatcher closes that gap the way
// production inference servers do: requests from any number of
// connections land in one bounded queue, the dispatch loop merges
// compatible pending batches into a single core.EncryptedBatch (their
// column ciphertexts simply concatenate), evaluates the merged batch
// once, and demultiplexes the per-sample results back to each caller.
//
// Coalescing is adaptive: while one merged batch is being evaluated, new
// arrivals accumulate in the queue and form the next merge, so batch
// sizes grow with load and collapse to single requests when the server
// is idle. The merge policy is greedy — a round takes exactly what has
// already queued and never stalls an idle server to wait for stragglers.
//
// Merging against one-at-a-time serving (DefaultMaxCoalescedSamples set to
// 1, so every request is its own evaluation), on the benchmark's serve_dense
// workload (784-32-10 MLP, 256 bits, 2 connections × 4 requests in flight),
// six 20 s pairs on a two-core Xeon, samples_per_s at box speed 1:
//
//	merged (cap 64)      996–1055, median 1023
//	one-at-a-time        579–629,  median 609
//
// Merging won all six pairs, 1.68× at the median, so it stays, and so does
// MaxCoalescedSamples: BenchmarkServeCoalesced's serial baseline sets it.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
)

// ErrBusy reports a prediction request rejected because the dispatcher
// queue is full. It is the protocol's typed retryable error: the server
// marks the response retryable, ClientConn.Predict re-wraps it on the
// client, and callers back off and retry (errors.Is(err, ErrBusy)).
var ErrBusy = errors.New("wire: prediction queue full")

// Dispatcher defaults, selected by zero-valued DispatcherOptions fields.
const (
	// DefaultMaxCoalescedSamples caps merged batch width.
	DefaultMaxCoalescedSamples = 64
	// DefaultMaxQueue bounds the number of requests awaiting dispatch.
	DefaultMaxQueue = 256
)

// DispatcherOptions tunes a coalescing dispatcher. The zero value selects
// the defaults above.
type DispatcherOptions struct {
	// MaxCoalescedSamples caps the total sample count of one merged
	// batch; a request whose batch alone exceeds it is still served, as
	// its own evaluation. 0 selects DefaultMaxCoalescedSamples.
	MaxCoalescedSamples int
	// MaxQueue bounds the dispatch queue (in requests); when it is full, a
	// request fails fast with ErrBusy instead of adding unbounded latency.
	// 0 selects DefaultMaxQueue.
	MaxQueue int
	// TopK, when non-nil, additionally serves coordinate-form top-k
	// requests (predict-topk frames). Sparse requests coalesce with each
	// other — same geometry and same k — never with dense batches.
	TopK PredictTopKFunc
}

// PredictTopKFunc evaluates one coordinate-form sparse batch and returns
// each sample's k largest logits as descending (label, value) pairs;
// service.Server.PredictTopK satisfies it.
type PredictTopKFunc func(*core.SparseBatch, int) ([][]dlog.TopKHit, error)

func (o *DispatcherOptions) fillDefaults() {
	if o.MaxCoalescedSamples <= 0 {
		o.MaxCoalescedSamples = DefaultMaxCoalescedSamples
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = DefaultMaxQueue
	}
}

// DispatcherStats is a point-in-time snapshot of a dispatcher's counters.
type DispatcherStats struct {
	// Requests counts accepted requests; Rejected counts queue-full
	// rejections (not included in Requests).
	Requests, Rejected uint64
	// Samples counts samples across accepted requests.
	Samples uint64
	// Evals counts evaluation rounds; Samples/Evals is the mean
	// coalesced batch width. MaxCoalesced is the widest merged batch.
	Evals        uint64
	MaxCoalesced int
	// Panics counts prediction frames whose decoding, submission or
	// evaluation panicked and was recovered by the server's barrier (each
	// cost its requests an error, not the dispatch loop or the process).
	Panics uint64
	// HandshakeRejected counts connections the PredictionServer closed
	// because they did not open with a valid hello.
	HandshakeRejected uint64
	// TopKRequests counts accepted top-k requests (also included in
	// Requests); TopKSamples counts their samples.
	TopKRequests, TopKSamples uint64
	// QueueDepth is the instantaneous number of queued requests.
	QueueDepth int
	// P50 and P99 are request latency percentiles (enqueue → result
	// delivery) over a sliding window of recent served requests.
	P50, P99 time.Duration
}

// latWindow is the sliding-window size of the latency reservoir.
const latWindow = 1024

// pendingPredict is one enqueued request: its batch (dense enc or sparse
// sp+k — exactly one is set), the caller's context, and the channel the
// result is delivered on (buffered, so the dispatch loop never blocks on
// a departed caller).
type pendingPredict struct {
	ctx   context.Context
	enc   *core.EncryptedBatch
	sp    *core.SparseBatch
	k     int
	start time.Time
	res   chan predictResult
}

// n returns the request's sample count.
func (p *pendingPredict) n() int {
	if p.sp != nil {
		return p.sp.N
	}
	return p.enc.N
}

type predictResult struct {
	preds []int
	hits  [][]dlog.TopKHit
	err   error
}

// slice returns one caller's share of a merged result: n samples from off.
func (r predictResult) slice(off, n int) predictResult {
	switch {
	case r.err != nil:
		return predictResult{err: r.err}
	case r.hits != nil:
		return predictResult{hits: r.hits[off : off+n : off+n]}
	}
	return predictResult{preds: r.preds[off : off+n : off+n]}
}

// dispatcher is the coalescing prediction dispatcher. One background
// loop owns all evaluation: it merges queued batches and runs them
// through the PredictFunc (or the PredictTopKFunc) one merged batch at a
// time, which both amortizes per-evaluation fixed costs across clients
// and serializes access to the underlying model (service.Server.Predict
// is not concurrency-hungry: the plaintext forward pass caches
// activations on the layers).
type dispatcher struct {
	srv     *connServer // whose panic barrier evaluations run behind
	predict PredictFunc
	topk    PredictTopKFunc
	opts    DispatcherOptions

	queue chan *pendingPredict
	done  chan struct{}
	wg    sync.WaitGroup

	mu           sync.Mutex
	closed       bool
	requests     uint64
	rejected     uint64
	samples      uint64
	topkRequests uint64
	topkSamples  uint64
	evals        uint64
	maxCoalesced int
	lats         [latWindow]time.Duration
	latN         uint64
}

// newDispatcher starts a coalescing dispatcher around a prediction
// function, evaluating behind srv's panic barrier. Close releases its
// background loop.
func newDispatcher(srv *connServer, predict PredictFunc, opts DispatcherOptions) (*dispatcher, error) {
	if predict == nil {
		return nil, errors.New("wire: nil predict function")
	}
	opts.fillDefaults()
	d := &dispatcher{
		srv:     srv,
		predict: predict,
		topk:    opts.TopK,
		opts:    opts,
		queue:   make(chan *pendingPredict, opts.MaxQueue),
		done:    make(chan struct{}),
	}
	d.wg.Add(1)
	go d.run()
	return d, nil
}

// Close stops the dispatch loop. Requests already queued fail with
// net.ErrClosed; a merge round already being evaluated completes and its
// callers receive their results.
func (d *dispatcher) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	close(d.done)
	d.wg.Wait()
	return nil
}

// submit is the one request path, dense (p.enc) and top-k (p.sp, p.k)
// alike: it checks the request, enqueues it, and blocks until its
// per-sample results are handed back, the context is done, or the
// dispatcher shuts down. It fails fast with ErrBusy when the queue is
// full — the caller should back off and retry.
func (d *dispatcher) submit(ctx context.Context, p *pendingPredict) predictResult {
	var err error
	switch {
	case p.sp == nil:
		err = validatePredictBatch(p.enc)
	case d.topk == nil:
		err = errors.New("wire: dispatcher has no top-k evaluator")
	case p.k <= 0:
		err = fmt.Errorf("wire: top-k count must be positive, got %d", p.k)
	case p.sp.N <= 0 || p.sp.X == nil:
		err = errors.New("wire: empty sparse prediction batch")
	default:
		err = checkColumnMatrix(p.sp.N, p.sp.Features, p.sp.X.Rows, p.sp.X.Cols, len(p.sp.X.ColCts))
	}
	if err != nil {
		return predictResult{err: err}
	}
	p.ctx, p.start, p.res = ctx, time.Now(), make(chan predictResult, 1)
	// Enqueue under the lock that Close takes before closing done: every
	// request that makes it into the queue is therefore guaranteed a
	// result — served, or failed with net.ErrClosed by the loop's
	// shutdown drain.
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return predictResult{err: net.ErrClosed}
	}
	select {
	case d.queue <- p:
		d.requests++
		d.samples += uint64(p.n())
		if p.sp != nil {
			d.topkRequests++
			d.topkSamples += uint64(p.n())
		}
		d.mu.Unlock()
	default:
		d.rejected++
		d.mu.Unlock()
		return predictResult{err: fmt.Errorf("%w (%d requests pending)", ErrBusy, d.opts.MaxQueue)}
	}
	select {
	case r := <-p.res:
		return r
	case <-ctx.Done():
		// The dispatch loop drops cancelled requests at merge time; if
		// this one was already merged, its result lands in the buffered
		// channel and is discarded.
		return predictResult{err: ctx.Err()}
	}
}

// Stats snapshots the dispatcher's counters.
func (d *dispatcher) Stats() DispatcherStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DispatcherStats{
		Requests:     d.requests,
		Rejected:     d.rejected,
		Samples:      d.samples,
		TopKRequests: d.topkRequests,
		TopKSamples:  d.topkSamples,
		Evals:        d.evals,
		MaxCoalesced: d.maxCoalesced,
		QueueDepth:   len(d.queue),
	}
	n := min(d.latN, latWindow)
	if n > 0 {
		window := make([]time.Duration, n)
		copy(window, d.lats[:n])
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		st.P50 = window[n/2]
		st.P99 = window[n*99/100]
	}
	return st
}

// checkColumnMatrix holds a batch's feature matrix to the batch's header: n
// samples means n columns in n column ciphertexts, over the declared number
// of plaintext rows. It is the one statement of that invariant for every
// batch that comes off a socket — dense and sparse predictions, whose
// merging relies on it, and training submissions, whose evaluation does.
func checkColumnMatrix(n, rows, gotRows, gotCols, gotCts int) error {
	switch {
	case gotCols != n || gotCts != n:
		return fmt.Errorf("wire: batch claims %d samples but its feature matrix declares %d columns and carries %d column ciphertexts", n, gotCols, gotCts)
	case gotRows != rows:
		return fmt.Errorf("wire: batch claims %d feature rows but the ciphertext matrix has %d", rows, gotRows)
	}
	return nil
}

// validatePredictBatch checks the invariants merging relies on.
func validatePredictBatch(enc *core.EncryptedBatch) error {
	if enc == nil || enc.N <= 0 || enc.X == nil {
		return errors.New("wire: empty prediction batch")
	}
	return checkColumnMatrix(enc.N, enc.Features, enc.X.Rows, enc.X.Cols, len(enc.X.ColCts))
}

// validateLabels checks a training submission's label section against its
// header, for the dense and the convolutional batch alike: one FEBO element
// per class and sample, the part of the labels the trainer reads.
func validateLabels(y *securemat.EncryptedMatrix, classes, n int) error {
	if y == nil {
		return errors.New("wire: batch without labels")
	}
	if y.Rows != classes || y.Cols != n || len(y.Elems) != classes {
		return fmt.Errorf("wire: batch claims %d classes × %d samples but its label section holds %d × %d elements", classes, n, y.Rows, y.Cols)
	}
	return nil
}

// coalescable reports whether two requests can share an evaluation: same
// request kind and model input geometry (and, for top-k requests, the
// same k), so their column ciphertexts concatenate into one well-formed
// encrypted matrix whose per-sample results demultiplex cleanly.
func coalescable(a, b *pendingPredict) bool {
	if (a.sp != nil) != (b.sp != nil) {
		return false
	}
	if a.sp != nil {
		return a.sp.Features == b.sp.Features && a.sp.Classes == b.sp.Classes &&
			a.sp.X.Rows == b.sp.X.Rows && a.k == b.k
	}
	return a.enc.Features == b.enc.Features && a.enc.Classes == b.enc.Classes && a.enc.X.Rows == b.enc.X.Rows
}

// run is the dispatch loop: collect a merge round, evaluate it, repeat.
// Evaluation happens inline, so under load the next round's batches
// accumulate in the queue while the current one computes — the adaptive
// coalescing described at the top of the file.
func (d *dispatcher) run() {
	defer d.wg.Done()
	var held *pendingPredict // first incompatible/overflow request of the next round
	for {
		var first *pendingPredict
		if held != nil {
			first, held = held, nil
		} else {
			select {
			case first = <-d.queue:
			case <-d.done:
				d.failPending(nil)
				return
			}
		}
		group := []*pendingPredict{first}
		samples := first.n()
	collect:
		for samples < d.opts.MaxCoalescedSamples {
			select {
			case q := <-d.queue:
				// An incompatible request, or one that would overflow the
				// sample cap, opens the next round instead.
				if !coalescable(first, q) || samples+q.n() > d.opts.MaxCoalescedSamples {
					held = q
					break collect
				}
				group = append(group, q)
				samples += q.n()
			default:
				break collect
			}
		}
		d.round(group)
		select {
		case <-d.done:
			d.failPending(held)
			return
		default:
		}
	}
}

// failPending fails the held request and everything still queued with
// net.ErrClosed. Called only from run on shutdown.
func (d *dispatcher) failPending(held *pendingPredict) {
	if held != nil {
		held.res <- predictResult{err: net.ErrClosed}
	}
	for {
		select {
		case p := <-d.queue:
			p.res <- predictResult{err: net.ErrClosed}
		default:
			return
		}
	}
}

// round serves one merge round: drop requests whose context is already
// done, merge the rest, evaluate once, and hand each caller its slice of
// the results. If the merged evaluation fails, each request is re-run on
// its own — coalescing must not cost peers the failure isolation they had
// on the serial path (one bad batch fails only its own caller).
func (d *dispatcher) round(group []*pendingPredict) {
	live := group[:0]
	for _, p := range group {
		if err := p.ctx.Err(); err != nil {
			p.res <- predictResult{err: err}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	r := d.eval(live)
	if r.err != nil && len(live) > 1 {
		for i, p := range live {
			d.deliver(p, d.eval(live[i:i+1]))
		}
		return
	}
	off := 0
	for _, p := range live {
		d.deliver(p, r.slice(off, p.n()))
		off += p.n()
	}
}

// eval merges a compatible group into one batch and evaluates it once
// behind the server's panic barrier: the dispatch loop runs evaluations on
// its own goroutine, so an unrecovered panic would kill prediction serving
// for every client, not just the request that tripped it.
func (d *dispatcher) eval(group []*pendingPredict) (r predictResult) {
	total := 0
	for _, p := range group {
		total += p.n()
	}
	r.err = d.srv.barrier("evaluating a prediction round", func() error {
		var err error
		got := 0
		if group[0].sp == nil {
			r.preds, err = d.predict(mergeBatches(group, total))
			got = len(r.preds)
		} else {
			r.hits, err = d.topk(mergeSparseBatches(group, total), group[0].k)
			got = len(r.hits)
		}
		if err == nil && got != total {
			err = fmt.Errorf("wire: %d results for %d samples", got, total)
		}
		return err
	})
	d.mu.Lock()
	d.evals++
	d.maxCoalesced = max(d.maxCoalesced, total)
	d.mu.Unlock()
	return r
}

// deliver hands a result to its caller, recording serve latency for
// successful requests.
func (d *dispatcher) deliver(p *pendingPredict, r predictResult) {
	if r.err == nil {
		d.mu.Lock()
		d.lats[d.latN%latWindow] = time.Since(p.start)
		d.latN++
		d.mu.Unlock()
	}
	p.res <- r
}

// mergeBatches concatenates the column ciphertexts of a merge round into
// one encrypted batch; a round of one is its own batch. Prediction touches
// only the column orientation of X (the secure feed-forward), so the
// merged batch carries no label matrix, row ciphertexts, or element
// ciphertexts.
func mergeBatches(group []*pendingPredict, total int) *core.EncryptedBatch {
	first := group[0].enc
	if len(group) == 1 {
		return first
	}
	cols := make([]*feip.Ciphertext, 0, total)
	for _, p := range group {
		cols = append(cols, p.enc.X.ColCts...)
	}
	return &core.EncryptedBatch{
		X:        &securemat.EncryptedMatrix{Rows: first.X.Rows, Cols: total, ColCts: cols},
		Features: first.Features,
		Classes:  first.Classes,
		N:        total,
	}
}

// mergeSparseBatches concatenates the column ciphertexts of a sparse
// merge round; every column keeps its own support and ct0.
func mergeSparseBatches(group []*pendingPredict, total int) *core.SparseBatch {
	first := group[0].sp
	if len(group) == 1 {
		return first
	}
	cols := make([]*feip.SparseCiphertext, 0, total)
	for _, p := range group {
		cols = append(cols, p.sp.X.ColCts...)
	}
	return &core.SparseBatch{
		X:        &securemat.SparseEncryptedMatrix{Rows: first.X.Rows, Cols: total, ColCts: cols},
		Features: first.Features,
		Classes:  first.Classes,
		N:        total,
	}
}
