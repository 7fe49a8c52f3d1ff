package wire

// Dispatcher tests run against a crypto-free fake: each fabricated
// sample carries a unique id inside its ciphertext (so identity survives
// a round-trip over the wire), and the fake predict function answers
// with those ids — so result demultiplexing is checked per sample, not
// just per count.

import (
	"context"
	"errors"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
)

// newTestDispatcher starts a dispatcher behind a bare server's panic
// barrier.
func newTestDispatcher(predict PredictFunc, opts DispatcherOptions) (*dispatcher, error) {
	var srv connServer
	srv.init("dispatcher", nil)
	return newDispatcher(&srv, predict, opts)
}

// do submits one dense request, as the prediction server's frame handler
// does for a predict frame.
func (d *dispatcher) do(ctx context.Context, enc *core.EncryptedBatch) ([]int, error) {
	r := d.submit(ctx, &pendingPredict{enc: enc})
	return r.preds, r.err
}

// doTopK submits one top-k request, as the frame handler does for a
// predict-topk frame.
func (d *dispatcher) doTopK(ctx context.Context, sp *core.SparseBatch, k int) ([][]dlog.TopKHit, error) {
	r := d.submit(ctx, &pendingPredict{sp: sp, k: k})
	return r.hits, r.err
}

// evalRecord is one fake evaluation's observed geometry. k is 0 for
// dense full-logit evaluations and the requested hit count for top-k.
type evalRecord struct {
	rows, n, k int
}

// fakeBackend fabricates prediction batches and answers them by the id
// embedded in each sample's ciphertext.
type fakeBackend struct {
	mu    sync.Mutex
	next  int64
	evals []evalRecord
}

func newFakeBackend() *fakeBackend { return &fakeBackend{} }

// newBatch fabricates an n-sample batch and returns the per-sample values
// predict will answer for it.
func (f *fakeBackend) newBatch(features, classes, n int) (*core.EncryptedBatch, []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cts := make([]*feip.Ciphertext, n)
	want := make([]int, n)
	for i := range cts {
		// Zero-filled rows keep the batch well-formed for the wire encoder.
		cts[i] = &feip.Ciphertext{Ct0: big.NewInt(f.next), Ct: make([]*big.Int, features)}
		for r := range cts[i].Ct {
			cts[i].Ct[r] = new(big.Int)
		}
		want[i] = int(f.next)
		f.next++
	}
	return &core.EncryptedBatch{
		X:        &securemat.EncryptedMatrix{Rows: features, Cols: n, ColCts: cts},
		Features: features,
		Classes:  classes,
		N:        n,
	}, want
}

// poisonBatch fabricates a batch that predict rejects (negative ids).
func (f *fakeBackend) poisonBatch(features, classes, n int) *core.EncryptedBatch {
	enc, _ := f.newBatch(features, classes, n)
	for _, ct := range enc.X.ColCts {
		ct.Ct0.Neg(ct.Ct0)
	}
	return enc
}

func (f *fakeBackend) predict(enc *core.EncryptedBatch) ([]int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.evals = append(f.evals, evalRecord{rows: enc.X.Rows, n: enc.N})
	out := make([]int, enc.N)
	for i, ct := range enc.X.ColCts {
		if ct == nil || ct.Ct0 == nil {
			return nil, errors.New("fake: ciphertext without embedded id")
		}
		id := ct.Ct0.Int64()
		if id < 0 {
			return nil, errors.New("fake: poisoned sample")
		}
		out[i] = int(id)
	}
	return out, nil
}

func (f *fakeBackend) evalCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.evals)
}

// gatedBackend wraps fakeBackend so the test can hold an evaluation open
// (entered fires when predict starts; release lets it finish).
type gatedBackend struct {
	*fakeBackend
	entered chan struct{}
	release chan struct{}
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{
		fakeBackend: newFakeBackend(),
		entered:     make(chan struct{}, 64),
		release:     make(chan struct{}),
	}
}

func (g *gatedBackend) predict(enc *core.EncryptedBatch) ([]int, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.fakeBackend.predict(enc)
}

func checkPreds(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d predictions, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: sample %d = %d, want %d (cross-client demux leak)", label, i, got[i], want[i])
		}
	}
}

// TestDispatcherDemuxInterleaved holds one evaluation open while several
// clients with different batch sizes pile up, then verifies every client
// got exactly its own samples back from the merged evaluation.
func TestDispatcherDemuxInterleaved(t *testing.T) {
	g := newGatedBackend()
	d, err := newTestDispatcher(g.predict, DispatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// First request occupies the evaluator.
	enc0, want0 := g.newBatch(3, 2, 1)
	type result struct {
		preds []int
		err   error
	}
	res0 := make(chan result, 1)
	go func() {
		p, err := d.do(context.Background(), enc0)
		res0 <- result{p, err}
	}()
	<-g.entered

	// Three more clients queue while it runs; batch sizes differ.
	var wg sync.WaitGroup
	clients := []int{1, 3, 2}
	results := make([]result, len(clients))
	wants := make([][]int, len(clients))
	for i, n := range clients {
		enc, want := g.newBatch(3, 2, n)
		wants[i] = want
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := d.do(context.Background(), enc)
			results[i] = result{p, err}
		}()
	}
	// Wait until all three are queued, then let evaluations flow.
	waitFor(t, func() bool { return len(d.queue) == len(clients) })
	close(g.release)

	r0 := <-res0
	if r0.err != nil {
		t.Fatalf("first request: %v", r0.err)
	}
	checkPreds(t, "first", r0.preds, want0)
	wg.Wait()
	for i := range clients {
		if results[i].err != nil {
			t.Fatalf("client %d: %v", i, results[i].err)
		}
		checkPreds(t, "queued client", results[i].preds, wants[i])
	}

	// The three queued clients must have shared one evaluation.
	if got := g.evalCount(); got != 2 {
		t.Errorf("evaluations = %d, want 2 (1 solo + 1 coalesced)", got)
	}
	st := d.Stats()
	if st.Requests != 4 || st.Samples != 7 || st.Evals != 2 || st.MaxCoalesced != 6 {
		t.Errorf("stats = %+v, want 4 requests / 7 samples / 2 evals / max 6", st)
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Errorf("latency percentiles not populated: p50 %s p99 %s", st.P50, st.P99)
	}
}

// TestDispatcherShapePartition checks that batches with different input
// geometry never share an evaluation.
func TestDispatcherShapePartition(t *testing.T) {
	g := newGatedBackend()
	d, err := newTestDispatcher(g.predict, DispatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	enc0, want0 := g.newBatch(3, 2, 1)
	go d.do(context.Background(), enc0) //nolint:errcheck // checked via eval records
	<-g.entered

	var wg sync.WaitGroup
	shapes := []struct{ features, n int }{{3, 2}, {4, 1}, {3, 1}}
	for _, s := range shapes {
		enc, want := g.newBatch(s.features, 2, s.n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := d.do(context.Background(), enc)
			if err != nil {
				t.Errorf("shape %+v: %v", s, err)
				return
			}
			checkPreds(t, "shape client", p, want)
		}()
	}
	waitFor(t, func() bool { return len(d.queue) == len(shapes) })
	close(g.release)
	wg.Wait()
	_ = want0

	g.mu.Lock()
	defer g.mu.Unlock()
	for _, ev := range g.evals {
		if ev.rows != 3 && ev.rows != 4 {
			t.Errorf("evaluation saw %d rows", ev.rows)
		}
		if ev.rows == 4 && ev.n != 1 {
			t.Errorf("4-feature batch coalesced with foreign samples: n=%d", ev.n)
		}
	}
}

// TestDispatcherBackpressure fills the bounded queue and checks the
// typed queue-full rejection plus recovery once the queue drains.
func TestDispatcherBackpressure(t *testing.T) {
	g := newGatedBackend()
	d, err := newTestDispatcher(g.predict, DispatcherOptions{MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	enc0, _ := g.newBatch(3, 2, 1)
	go d.do(context.Background(), enc0) //nolint:errcheck
	<-g.entered                         // evaluator busy, queue empty

	enc1, want1 := g.newBatch(3, 2, 1)
	res1 := make(chan []int, 1)
	go func() {
		p, err := d.do(context.Background(), enc1)
		if err != nil {
			t.Errorf("queued request: %v", err)
		}
		res1 <- p
	}()
	waitFor(t, func() bool { return len(d.queue) == 1 }) // queue full

	enc2, _ := g.newBatch(3, 2, 1)
	if _, err := d.do(context.Background(), enc2); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow request: err = %v, want ErrBusy", err)
	}
	if st := d.Stats(); st.Rejected != 1 || st.QueueDepth != 1 {
		t.Errorf("stats = %+v, want 1 rejected, queue depth 1", st)
	}

	close(g.release)
	checkPreds(t, "queued after busy", <-res1, want1)

	// The queue drained; a retry now succeeds.
	enc3, want3 := g.newBatch(3, 2, 1)
	p, err := d.do(context.Background(), enc3)
	if err != nil {
		t.Fatalf("retry after drain: %v", err)
	}
	checkPreds(t, "retry", p, want3)
}

// TestDispatcherContextCancel cancels a request while it waits in the
// queue behind a held-open evaluation and checks the caller returns
// promptly, the cancelled batch is dropped before evaluation, and later
// requests are unaffected.
func TestDispatcherContextCancel(t *testing.T) {
	g := newGatedBackend()
	d, err := newTestDispatcher(g.predict, DispatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	enc0, _ := g.newBatch(3, 2, 1)
	go d.do(context.Background(), enc0) //nolint:errcheck
	<-g.entered                         // evaluator busy, queue empty

	ctx, cancel := context.WithCancel(context.Background())
	enc1, _ := g.newBatch(3, 2, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := d.do(ctx, enc1)
		errCh <- err
	}()
	waitFor(t, func() bool { return len(d.queue) == 1 })
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled request: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return")
	}

	// The next round finds only the cancelled request queued and must not
	// evaluate it; the follow-up is a round of its own.
	close(g.release)
	enc2, want2 := g.newBatch(3, 2, 1)
	p, err := d.do(context.Background(), enc2)
	if err != nil {
		t.Fatalf("follow-up request: %v", err)
	}
	checkPreds(t, "follow-up", p, want2)
	g.mu.Lock()
	defer g.mu.Unlock()
	samples := 0
	for _, ev := range g.evals {
		samples += ev.n
	}
	if samples != 2 {
		t.Errorf("evals = %+v, want the held-open and the follow-up sample evaluated and the cancelled one dropped", g.evals)
	}
}

// TestDispatcherClose checks shutdown semantics: queued requests fail
// with net.ErrClosed, the in-flight round completes, and a request after Close
// fails fast.
func TestDispatcherClose(t *testing.T) {
	g := newGatedBackend()
	d, err := newTestDispatcher(g.predict, DispatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}

	enc0, want0 := g.newBatch(3, 2, 1)
	res0 := make(chan []int, 1)
	go func() {
		p, err := d.do(context.Background(), enc0)
		if err != nil {
			t.Errorf("in-flight request: %v", err)
		}
		res0 <- p
	}()
	<-g.entered

	enc1, _ := g.newBatch(3, 2, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := d.do(context.Background(), enc1)
		errCh <- err
	}()
	waitFor(t, func() bool { return len(d.queue) == 1 })

	closed := make(chan struct{})
	go func() { defer close(closed); _ = d.Close() }()
	// Release the gated evaluation only once shutdown has begun, so the
	// queued request is still pending when the loop winds down.
	waitFor(t, func() bool {
		select {
		case <-d.done:
			return true
		default:
			return false
		}
	})
	close(g.release)
	<-closed

	checkPreds(t, "in-flight at close", <-res0, want0)
	if err := <-errCh; !errors.Is(err, net.ErrClosed) {
		t.Errorf("queued at close: err = %v, want net.ErrClosed", err)
	}
	if _, err := d.do(context.Background(), enc1); !errors.Is(err, net.ErrClosed) {
		t.Errorf("request after Close: err = %v, want net.ErrClosed", err)
	}
}

// TestDispatcherFailureIsolation checks that one bad batch in a merged
// round does not fail its coalesced peers: the failed merge falls back
// to per-request evaluations, so only the offending caller errors —
// exactly the isolation the serial path provides.
func TestDispatcherFailureIsolation(t *testing.T) {
	g := newGatedBackend()
	d, err := newTestDispatcher(g.predict, DispatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	enc0, want0 := g.newBatch(3, 2, 1)
	res0 := make(chan []int, 1)
	go func() {
		p, err := d.do(context.Background(), enc0)
		if err != nil {
			t.Errorf("warm-up request: %v", err)
		}
		res0 <- p
	}()
	<-g.entered

	// Two good clients and one poisoned one queue into the same round.
	encA, wantA := g.newBatch(3, 2, 2)
	encP := g.poisonBatch(3, 2, 1)
	encB, wantB := g.newBatch(3, 2, 1)
	var wg sync.WaitGroup
	var predsA, predsB []int
	var errA, errP, errB error
	for _, req := range []struct {
		enc   *core.EncryptedBatch
		preds *[]int
		err   *error
	}{{encA, &predsA, &errA}, {encP, nil, &errP}, {encB, &predsB, &errB}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := d.do(context.Background(), req.enc)
			if req.preds != nil {
				*req.preds = p
			}
			*req.err = err
		}()
	}
	waitFor(t, func() bool { return len(d.queue) == 3 })
	close(g.release)
	checkPreds(t, "warm-up", <-res0, want0)
	wg.Wait()

	if errA != nil {
		t.Errorf("good client A failed alongside poisoned peer: %v", errA)
	} else {
		checkPreds(t, "good client A", predsA, wantA)
	}
	if errB != nil {
		t.Errorf("good client B failed alongside poisoned peer: %v", errB)
	} else {
		checkPreds(t, "good client B", predsB, wantB)
	}
	if errP == nil {
		t.Error("poisoned request succeeded")
	}
	// Backend saw: warm-up, the failed merge, and three single retries.
	if got := g.evalCount(); got != 5 {
		t.Errorf("backend evaluations = %d, want 5 (warm-up + failed merge + 3 retries)", got)
	}
}

// TestDispatcherRejectsMalformedBatch checks the merge invariants are
// enforced at the door.
func TestDispatcherRejectsMalformedBatch(t *testing.T) {
	f := newFakeBackend()
	d, err := newTestDispatcher(f.predict, DispatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	enc, _ := f.newBatch(3, 2, 2)
	bad := *enc
	bad.N = 3 // claims more samples than it carries
	if _, err := d.do(context.Background(), &bad); err == nil {
		t.Error("sample-count mismatch accepted")
	}
	bad = *enc
	bad.Features = 5 // geometry mismatch with the ciphertext matrix
	if _, err := d.do(context.Background(), &bad); err == nil {
		t.Error("feature-count mismatch accepted")
	}
	if _, err := d.do(context.Background(), nil); err == nil {
		t.Error("nil batch accepted")
	}
}

// TestDispatcherHammer drives many concurrent connections' worth of
// requests (mixed batch sizes, sprinkled cancellations) through one
// dispatcher and verifies per-sample demux on every response. Run under
// -race via `make race`.
func TestDispatcherHammer(t *testing.T) {
	f := newFakeBackend()
	d, err := newTestDispatcher(f.predict, DispatcherOptions{MaxCoalescedSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const (
		goroutines = 16
		perG       = 25
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				n := 1 + (g+i)%3
				enc, want := f.newBatch(4, 2, n)
				ctx := context.Background()
				if (g+i)%11 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					cancel() // already-cancelled: must never corrupt a round
				}
				preds, err := d.do(ctx, enc)
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("goroutine %d request %d: %v", g, i, err)
					}
					continue
				}
				checkPreds(t, "hammer", preds, want)
			}
		}()
	}
	wg.Wait()
	st := d.Stats()
	if st.Requests == 0 || st.Evals == 0 {
		t.Fatalf("stats = %+v, nothing served", st)
	}
	if st.Evals > st.Requests {
		t.Errorf("more evaluations (%d) than requests (%d)", st.Evals, st.Requests)
	}
	t.Logf("hammer: %d requests, %d samples, %d evals (max coalesced %d), p50 %s p99 %s",
		st.Requests, st.Samples, st.Evals, st.MaxCoalesced, st.P50, st.P99)
}

// TestPredictionServerBusyOverWire checks the end-to-end backpressure
// story: a saturated coalescing server answers with a retryable error and
// the client surfaces it as wire.ErrBusy.
func TestPredictionServerBusyOverWire(t *testing.T) {
	g := newGatedBackend()
	srv, err := NewCoalescingPredictionServer(g.predict, nil, DispatcherOptions{MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()

	dial := func() *ClientConn {
		t.Helper()
		conn, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	predict := func(cc *ClientConn, enc *core.EncryptedBatch) ([]int, error) {
		return cc.Predict(context.Background(), enc, 0)
	}

	// Occupy the evaluator, then fill the queue.
	enc0, _ := g.newBatch(3, 2, 1)
	conn0 := dial()
	defer conn0.Close()
	go predict(conn0, enc0) //nolint:errcheck
	<-g.entered
	enc1, want1 := g.newBatch(3, 2, 1)
	conn1 := dial()
	defer conn1.Close()
	res1 := make(chan error, 1)
	var preds1 []int
	go func() {
		var err error
		preds1, err = predict(conn1, enc1)
		res1 <- err
	}()
	waitFor(t, func() bool { return srv.Stats().QueueDepth == 1 })

	// Third client: typed retryable rejection.
	enc2, want2 := g.newBatch(3, 2, 1)
	conn2 := dial()
	defer conn2.Close()
	if _, err := predict(conn2, enc2); !errors.Is(err, ErrBusy) {
		t.Fatalf("saturated server: err = %v, want wire.ErrBusy", err)
	}

	// Back off, retry on the same connection: now served.
	close(g.release)
	if err := <-res1; err != nil {
		t.Fatalf("queued request: %v", err)
	}
	checkPreds(t, "queued", preds1, want1)
	preds2, err := predict(conn2, enc2)
	if err != nil {
		t.Fatalf("retry after busy: %v", err)
	}
	checkPreds(t, "retry", preds2, want2)

	cancel()
	if err := <-served; err != nil && !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve: %v", err)
	}
}

// TestPredictionServerDropsDepartedClient checks that a client's queued
// requests die with its connection: they are dropped at merge time, never
// evaluated for nobody.
func TestPredictionServerDropsDepartedClient(t *testing.T) {
	g := newGatedBackend()
	addr, srv := startPredictServer(t, g.predict, DispatcherOptions{})
	release := sync.OnceFunc(func() { close(g.release) })
	t.Cleanup(release) // a failed wait must not leave the server's shutdown blocked on A
	cc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// A occupies the evaluator; B and C queue behind it.
	for i := 0; i < 3; i++ {
		enc, _ := g.newBatch(3, 2, 1)
		go cc.Predict(context.Background(), enc, 0) //nolint:errcheck // the client leaves before any answer
		if i == 0 {
			<-g.entered
		}
	}
	waitFor(t, func() bool { st := srv.Stats(); return st.Requests == 3 && st.QueueDepth == 2 })
	_ = cc.Close()
	// The connection is gone once its handler has returned.
	waitFor(t, func() bool {
		srv.connMu.Lock()
		defer srv.connMu.Unlock()
		return len(srv.conns) == 0
	})
	release()
	waitFor(t, func() bool { return srv.Stats().QueueDepth == 0 })
	_ = srv.Close() // waits for the round holding B and C
	if st := srv.Stats(); st.Evals != 1 {
		t.Fatalf("evals = %d, want 1: the departed client's queued requests were evaluated", st.Evals)
	}
}

// waitFor polls cond until it holds or the test deadline approaches.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}
