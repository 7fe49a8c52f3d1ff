package wire

// Tests for the sparse serving path: the bfPredictTopK/bfTopK binary
// codec (round trips plus a hostile-geometry matrix mirroring the conv
// batch one), dispatcher-level top-k coalescing with per-sample demux,
// and the over-the-wire contract that a hostile sparse frame costs one
// bfErr while the connection keeps serving.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
)

// synthSparseCt fabricates a coordinate-form ciphertext with nnz sorted
// support indices drawn without replacement from [0, eta).
func synthSparseCt(rng *rand.Rand, eta, nnz int) *feip.SparseCiphertext {
	idx := append([]int(nil), rng.Perm(eta)[:nnz]...)
	sort.Ints(idx)
	ct := &feip.SparseCiphertext{
		Eta: eta,
		Ct0: new(big.Int).SetUint64(rng.Uint64()),
		Idx: idx,
		Ct:  make([]*big.Int, nnz),
	}
	for t := range ct.Ct {
		// Mix widths so the fixed-width slab actually pads.
		ct.Ct[t] = new(big.Int).SetUint64(rng.Uint64() >> (uint(rng.Intn(8)) * 8))
	}
	return ct
}

func synthSparseBatch(rng *rand.Rand, features, classes, n, nnz int) *core.SparseBatch {
	m := &securemat.SparseEncryptedMatrix{
		Rows: features, Cols: n,
		ColCts: make([]*feip.SparseCiphertext, n),
	}
	for j := range m.ColCts {
		m.ColCts[j] = synthSparseCt(rng, features, nnz)
	}
	return &core.SparseBatch{X: m, Features: features, Classes: classes, N: n}
}

func TestSparseBatchBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sp := synthSparseBatch(rng, 9, 4, 3, 2)
	body, err := appendSparseBatch(nil, 3, sp)
	if err != nil {
		t.Fatal(err)
	}
	k, got, err := decodeSparseBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 || got.Features != 9 || got.Classes != 4 || got.N != 3 {
		t.Fatalf("geometry mangled: k=%d %+v", k, got)
	}
	// Re-encoding the decoded batch must be byte-identical: the codec is
	// canonical, so this is a full deep-equality check.
	body2, err := appendSparseBatch(nil, k, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("round-trip is not byte-identical")
	}
}

func TestTopKHitsBinaryRoundTrip(t *testing.T) {
	hits := [][]dlog.TopKHit{
		{{Index: 5, Value: 123456}, {Index: 0, Value: -7}},
		{},
		{{Index: 2, Value: 1 << 40}},
	}
	body, err := appendTopKHits(nil, hits)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeTopKHits(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(hits) {
		t.Fatalf("got %d hit lists, want %d", len(got), len(hits))
	}
	for i := range hits {
		if len(got[i]) != len(hits[i]) {
			t.Fatalf("sample %d: %d hits, want %d", i, len(got[i]), len(hits[i]))
		}
		for j := range hits[i] {
			if got[i][j] != hits[i][j] {
				t.Fatalf("sample %d hit %d: %+v, want %+v", i, j, got[i][j], hits[i][j])
			}
		}
	}
	body2, err := appendTopKHits(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("round-trip is not byte-identical")
	}
}

// sparseBody hand-assembles a bfPredictTopK body from raw words so tests
// can express frames today's encoder refuses to produce.
func sparseBody(k, features, classes, n uint32, vec []byte) []byte {
	var b []byte
	for _, v := range []uint32{k, features, classes, n} {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return append(b, vec...)
}

// spctvec hand-assembles a spctvec section with one-byte elements.
func spctvec(count, eta uint32, entries ...[]byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, count)
	b = binary.BigEndian.AppendUint32(b, eta)
	b = binary.BigEndian.AppendUint16(b, 1) // element width 1
	for _, e := range entries {
		b = append(b, e...)
	}
	return b
}

// spEntry assembles one entry: the nnz word, a one-byte ct0, then one
// (idx, ct) pair per listed index — the declared nnz may disagree.
func spEntry(nnz uint32, idxs ...uint32) []byte {
	b := binary.BigEndian.AppendUint32(nil, nnz)
	b = append(b, 0x01) // ct0
	for _, idx := range idxs {
		b = binary.BigEndian.AppendUint32(b, idx)
		b = append(b, 0x02) // element
	}
	return b
}

// hostileSparseBodies is the named attack matrix for the sparse decoder:
// every body must fail with ErrBinaryEncoding, never a panic or a huge
// allocation.
func hostileSparseBodies() map[string][]byte {
	return map[string][]byte{
		"zero k":                sparseBody(0, 4, 2, 1, spctvec(1, 4, spEntry(1, 0))),
		"nnz exceeds dimension": sparseBody(1, 4, 2, 1, spctvec(1, 4, spEntry(5, 0, 1, 2, 3))),
		"duplicate index":       sparseBody(1, 4, 2, 1, spctvec(1, 4, spEntry(2, 1, 1))),
		"unsorted index":        sparseBody(1, 4, 2, 1, spctvec(1, 4, spEntry(2, 2, 1))),
		"index out of range":    sparseBody(1, 4, 2, 1, spctvec(1, 4, spEntry(1, 4))),
		"count mismatch":        sparseBody(1, 4, 2, 1, spctvec(2, 4, spEntry(1, 0), spEntry(1, 0))),
		"dimension mismatch":    sparseBody(1, 4, 2, 1, spctvec(1, 5, spEntry(1, 0))),
		"zero dimension":        sparseBody(1, 0, 2, 1, spctvec(1, 0, spEntry(0))),
		"truncated pair list":   sparseBody(1, 4, 2, 1, spctvec(1, 4, spEntry(3, 0))),
		"oversized count":       sparseBody(1, 4, 2, 1, spctvec(1<<23, 4)),
		"huge nnz word":         sparseBody(1, 4, 2, 1, spctvec(1, 4, spEntry(0xFFFFFF00))),
	}
}

func TestSparseDecodeRejectsHostileBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sp := synthSparseBatch(rng, 7, 3, 2, 3)
	body, err := appendSparseBatch(nil, 2, sp)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must fail cleanly — no panic, no huge allocation.
	for n := 0; n < len(body); n++ {
		if _, _, err := decodeSparseBatch(body[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	if _, _, err := decodeSparseBatch(append(bytes.Clone(body), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	for name, hostile := range hostileSparseBodies() {
		if _, _, err := decodeSparseBatch(hostile); err == nil {
			t.Errorf("%s: hostile sparse body accepted", name)
		} else if !errors.Is(err, ErrBinaryEncoding) {
			t.Errorf("%s: want ErrBinaryEncoding, got %v", name, err)
		}
	}

	// Hit-list side: oversized counts must fail before allocating.
	if _, err := decodeTopKHits([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("oversized sample count accepted")
	}
	huge := binary.BigEndian.AppendUint32(nil, 1)
	huge = binary.BigEndian.AppendUint32(huge, 1<<23)
	if _, err := decodeTopKHits(huge); err == nil {
		t.Fatal("oversized hit count accepted")
	}
	hitBody, err := appendTopKHits(nil, [][]dlog.TopKHit{{{Index: 1, Value: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(hitBody); n++ {
		if _, err := decodeTopKHits(hitBody[:n]); err == nil {
			t.Fatalf("hit truncation to %d bytes decoded successfully", n)
		}
	}
	if _, err := decodeTopKHits(append(bytes.Clone(hitBody), 0xFF)); err == nil {
		t.Fatal("trailing hit bytes accepted")
	}
}

func TestSparseEncoderMatchesDecoderLimits(t *testing.T) {
	// The encoder must reject exactly what the decoder rejects, so a bad
	// batch fails fast locally instead of costing a round trip.
	rng := rand.New(rand.NewSource(23))
	good := synthSparseBatch(rng, 6, 3, 1, 2)
	if _, err := appendSparseBatch(nil, 0, good); err == nil {
		t.Error("zero k accepted")
	}
	if _, err := appendSparseBatch(nil, 1, nil); err == nil {
		t.Error("nil batch accepted")
	}
	bad := *good
	bad.Features = 7 // disagrees with X.Rows
	if _, err := appendSparseBatch(nil, 1, &bad); err == nil {
		t.Error("geometry mismatch accepted")
	}
	unsorted := synthSparseBatch(rng, 6, 3, 1, 2)
	unsorted.X.ColCts[0].Idx = []int{3, 1}
	if _, err := appendSparseBatch(nil, 1, unsorted); err == nil {
		t.Error("unsorted support accepted")
	}
	outOfRange := synthSparseBatch(rng, 6, 3, 1, 1)
	outOfRange.X.ColCts[0].Idx = []int{6}
	if _, err := appendSparseBatch(nil, 1, outOfRange); err == nil {
		t.Error("out-of-range support accepted")
	}
}

// fakeHits is the deterministic answer the fake top-k backend gives for
// the sample whose embedded id is id.
func fakeHits(id int64, k int) []dlog.TopKHit {
	hs := make([]dlog.TopKHit, k)
	for t := range hs {
		hs[t] = dlog.TopKHit{Index: int(id) + t, Value: id*1000 - int64(t)}
	}
	return hs
}

// newSparseBatch fabricates an n-sample coordinate-form batch and the
// per-sample hit lists topkEval will answer for it at the given k.
func (f *fakeBackend) newSparseBatch(features, classes, n, k int) (*core.SparseBatch, [][]dlog.TopKHit) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cts := make([]*feip.SparseCiphertext, n)
	want := make([][]dlog.TopKHit, n)
	for j := range cts {
		cts[j] = &feip.SparseCiphertext{
			Eta: features,
			Ct0: big.NewInt(f.next),
			Idx: []int{0},
			Ct:  []*big.Int{big.NewInt(1)},
		}
		want[j] = fakeHits(f.next, k)
		f.next++
	}
	return &core.SparseBatch{
		X:        &securemat.SparseEncryptedMatrix{Rows: features, Cols: n, ColCts: cts},
		Features: features, Classes: classes, N: n,
	}, want
}

// poisonSparseBatch fabricates a batch topkEval rejects (negative ids).
func (f *fakeBackend) poisonSparseBatch(features, classes, n int) *core.SparseBatch {
	sp, _ := f.newSparseBatch(features, classes, n, 1)
	for _, ct := range sp.X.ColCts {
		ct.Ct0.Neg(ct.Ct0)
	}
	return sp
}

func (f *fakeBackend) topkEval(sp *core.SparseBatch, k int) ([][]dlog.TopKHit, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.evals = append(f.evals, evalRecord{rows: sp.X.Rows, n: sp.N, k: k})
	out := make([][]dlog.TopKHit, sp.N)
	for j, ct := range sp.X.ColCts {
		if ct == nil || ct.Ct0 == nil {
			return nil, errors.New("fake: sparse ciphertext without embedded id")
		}
		id := ct.Ct0.Int64()
		if id < 0 {
			return nil, errors.New("fake: poisoned sample")
		}
		out[j] = fakeHits(id, k)
	}
	return out, nil
}

func (g *gatedBackend) topkEval(sp *core.SparseBatch, k int) ([][]dlog.TopKHit, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.fakeBackend.topkEval(sp, k)
}

func checkHits(t *testing.T, label string, got, want [][]dlog.TopKHit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d hit lists, want %d", label, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: sample %d has %d hits, want %d", label, i, len(got[i]), len(want[i]))
			continue
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("%s: sample %d hit %d = %+v, want %+v (cross-client demux leak)",
					label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestDispatcherTopKDemux holds one top-k evaluation open while more
// sparse clients pile up, then verifies every client got exactly its own
// hit lists back from the merged evaluation.
func TestDispatcherTopKDemux(t *testing.T) {
	g := newGatedBackend()
	d, err := newTestDispatcher(g.predict, DispatcherOptions{TopK: g.topkEval})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	sp0, want0 := g.newSparseBatch(5, 3, 1, 2)
	type result struct {
		hits [][]dlog.TopKHit
		err  error
	}
	res0 := make(chan result, 1)
	go func() {
		h, err := d.doTopK(context.Background(), sp0, 2)
		res0 <- result{h, err}
	}()
	<-g.entered

	var wg sync.WaitGroup
	clients := []int{1, 3, 2}
	results := make([]result, len(clients))
	wants := make([][][]dlog.TopKHit, len(clients))
	for i, n := range clients {
		sp, want := g.newSparseBatch(5, 3, n, 2)
		wants[i] = want
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := d.doTopK(context.Background(), sp, 2)
			results[i] = result{h, err}
		}()
	}
	waitFor(t, func() bool { return len(d.queue) == len(clients) })
	close(g.release)

	r0 := <-res0
	if r0.err != nil {
		t.Fatalf("first request: %v", r0.err)
	}
	checkHits(t, "first", r0.hits, want0)
	wg.Wait()
	for i := range clients {
		if results[i].err != nil {
			t.Fatalf("client %d: %v", i, results[i].err)
		}
		checkHits(t, "queued client", results[i].hits, wants[i])
	}

	// The three queued clients must have shared one evaluation.
	if got := g.evalCount(); got != 2 {
		t.Errorf("evaluations = %d, want 2 (1 solo + 1 coalesced)", got)
	}
	st := d.Stats()
	if st.TopKRequests != 4 || st.TopKSamples != 7 {
		t.Errorf("stats = %+v, want 4 top-k requests / 7 top-k samples", st)
	}
}

// TestDispatcherTopKPartition checks the coalescing fences: sparse never
// merges with dense, and sparse requests with different k never merge.
func TestDispatcherTopKPartition(t *testing.T) {
	g := newGatedBackend()
	d, err := newTestDispatcher(g.predict, DispatcherOptions{TopK: g.topkEval})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	enc0, _ := g.newBatch(5, 3, 1)
	go d.do(context.Background(), enc0) //nolint:errcheck // checked via eval records
	<-g.entered

	var wg sync.WaitGroup
	launch := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				t.Error(err)
			}
		}()
	}
	encD, wantD := g.newBatch(5, 3, 2)
	launch(func() error {
		p, err := d.do(context.Background(), encD)
		if err == nil {
			checkPreds(t, "dense peer", p, wantD)
		}
		return err
	})
	for _, k := range []int{2, 2, 3} {
		sp, want := g.newSparseBatch(5, 3, 1, k)
		launch(func() error {
			h, err := d.doTopK(context.Background(), sp, k)
			if err == nil {
				checkHits(t, "sparse peer", h, want)
			}
			return err
		})
	}
	waitFor(t, func() bool { return len(d.queue) == 4 })
	close(g.release)
	wg.Wait()

	g.mu.Lock()
	defer g.mu.Unlock()
	for _, ev := range g.evals {
		switch ev.k {
		case 0: // dense rounds never carry sparse samples
			if ev.n > 2 {
				t.Errorf("dense evaluation saw %d samples", ev.n)
			}
		case 2: // the two k=2 singles may merge with each other only
			if ev.n > 2 {
				t.Errorf("k=2 evaluation saw %d samples", ev.n)
			}
		case 3:
			if ev.n != 1 {
				t.Errorf("k=3 evaluation saw %d samples", ev.n)
			}
		default:
			t.Errorf("evaluation with unexpected k=%d", ev.k)
		}
	}
}

// TestDispatcherTopKFailureIsolation checks that one poisoned sparse
// batch in a merged round only fails its own caller: the failed merge
// falls back to per-request evaluations.
func TestDispatcherTopKFailureIsolation(t *testing.T) {
	g := newGatedBackend()
	d, err := newTestDispatcher(g.predict, DispatcherOptions{TopK: g.topkEval})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	sp0, want0 := g.newSparseBatch(5, 3, 1, 1)
	res0 := make(chan [][]dlog.TopKHit, 1)
	go func() {
		h, err := d.doTopK(context.Background(), sp0, 1)
		if err != nil {
			t.Errorf("warm-up request: %v", err)
		}
		res0 <- h
	}()
	<-g.entered

	spA, wantA := g.newSparseBatch(5, 3, 2, 1)
	spP := g.poisonSparseBatch(5, 3, 1)
	spB, wantB := g.newSparseBatch(5, 3, 1, 1)
	var hitsA, hitsB [][]dlog.TopKHit
	var errA, errP, errB error
	var wg sync.WaitGroup
	for _, req := range []struct {
		sp   *core.SparseBatch
		hits *[][]dlog.TopKHit
		err  *error
	}{{spA, &hitsA, &errA}, {spP, nil, &errP}, {spB, &hitsB, &errB}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := d.doTopK(context.Background(), req.sp, 1)
			if req.hits != nil {
				*req.hits = h
			}
			*req.err = err
		}()
	}
	waitFor(t, func() bool { return len(d.queue) == 3 })
	close(g.release)
	checkHits(t, "warm-up", <-res0, want0)
	wg.Wait()

	if errA != nil {
		t.Errorf("good client A failed alongside poisoned peer: %v", errA)
	} else {
		checkHits(t, "good client A", hitsA, wantA)
	}
	if errB != nil {
		t.Errorf("good client B failed alongside poisoned peer: %v", errB)
	} else {
		checkHits(t, "good client B", hitsB, wantB)
	}
	if errP == nil {
		t.Error("poisoned request succeeded")
	}
	// Backend saw: warm-up, the failed merge, and three single retries.
	if got := g.evalCount(); got != 5 {
		t.Errorf("backend evaluations = %d, want 5 (warm-up + failed merge + 3 retries)", got)
	}
}

// TestDispatcherRejectsMalformedSparseBatch checks the merge invariants
// are enforced at the door, before a bad batch can reach a round.
func TestDispatcherRejectsMalformedSparseBatch(t *testing.T) {
	f := newFakeBackend()
	d, err := newTestDispatcher(f.predict, DispatcherOptions{TopK: f.topkEval})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	sp, _ := f.newSparseBatch(5, 3, 2, 1)
	if _, err := d.doTopK(context.Background(), sp, 0); err == nil {
		t.Error("non-positive k accepted")
	}
	bad := *sp
	bad.N = 3 // claims more samples than it carries
	if _, err := d.doTopK(context.Background(), &bad, 1); err == nil {
		t.Error("sample-count mismatch accepted")
	}
	bad = *sp
	bad.Features = 7 // geometry mismatch with the ciphertext matrix
	if _, err := d.doTopK(context.Background(), &bad, 1); err == nil {
		t.Error("feature-count mismatch accepted")
	}
	if _, err := d.doTopK(context.Background(), nil, 1); err == nil {
		t.Error("nil batch accepted")
	}

	// A dispatcher without a top-k evaluator refuses cleanly.
	d2, err := newTestDispatcher(f.predict, DispatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := d2.doTopK(context.Background(), sp, 1); err == nil {
		t.Error("dispatcher without top-k evaluator accepted a sparse request")
	}
}

// TestDispatcherMixedHammer interleaves sparse and dense clients with
// mid-flight cancellations through one dispatcher, verifying per-sample
// demux on every response and that the dispatcher winds down without
// leaking goroutines. Run under -race via `make race`.
func TestDispatcherMixedHammer(t *testing.T) {
	f := newFakeBackend()
	d, err := newTestDispatcher(f.predict, DispatcherOptions{MaxCoalescedSamples: 8, TopK: f.topkEval})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

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
				ctx := context.Background()
				var cancel context.CancelFunc
				if (g+i)%11 == 0 {
					ctx, cancel = context.WithCancel(ctx)
				}
				var err error
				if (g+i)%2 == 0 {
					k := 1 + g%3
					sp, want := f.newSparseBatch(4, 2, n, k)
					var hits [][]dlog.TopKHit
					if cancel != nil {
						cancel() // already-cancelled: must never corrupt a round
					}
					hits, err = d.doTopK(ctx, sp, k)
					if err == nil {
						checkHits(t, "hammer sparse", hits, want)
					}
				} else {
					enc, want := f.newBatch(4, 2, n)
					var preds []int
					if cancel != nil {
						cancel()
					}
					preds, err = d.do(ctx, enc)
					if err == nil {
						checkPreds(t, "hammer dense", preds, want)
					}
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("goroutine %d request %d: %v", g, i, err)
				}
			}
		}()
	}
	wg.Wait()
	st := d.Stats()
	if st.Requests == 0 || st.TopKRequests == 0 || st.Evals == 0 {
		t.Fatalf("stats = %+v, both kinds should have been served", st)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The run loop and any per-round helpers must exit with the
	// dispatcher; poll because goroutine teardown is asynchronous.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base })
	t.Logf("mixed hammer: %d requests (%d top-k), %d samples (%d top-k), %d evals (max coalesced %d)",
		st.Requests, st.TopKRequests, st.Samples, st.TopKSamples, st.Evals, st.MaxCoalesced)
}

// echoTopK answers hits derived from sample position — enough to check
// demux across the wire without a fake-backend id registry.
func echoTopK(sp *core.SparseBatch, k int) ([][]dlog.TopKHit, error) {
	hits := make([][]dlog.TopKHit, sp.N)
	for j := range hits {
		hs := make([]dlog.TopKHit, k)
		for t := range hs {
			hs[t] = dlog.TopKHit{Index: t, Value: int64(j*100 + t)}
		}
		hits[j] = hs
	}
	return hits, nil
}

// TestClientConnPredictTopK exercises the full client → server → client
// top-k path.
func TestClientConnPredictTopK(t *testing.T) {
	addr, srv := startPredictServer(t, echoPredict, DispatcherOptions{TopK: echoTopK})
	rng := rand.New(rand.NewSource(24))
	cc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	sp := synthSparseBatch(rng, 6, 4, 2, 2)
	hits, err := cc.PredictTopK(context.Background(), sp, 3, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || len(hits[0]) != 3 || len(hits[1]) != 3 {
		t.Fatalf("bad hit shape %v", hits)
	}
	if hits[1][2].Value != 102 || hits[1][2].Index != 2 {
		t.Fatalf("demux mangled: %+v", hits[1][2])
	}
	if srv.Stats().Panics != 0 {
		t.Fatalf("panics = %d", srv.Stats().Panics)
	}
}

// TestPredictionServerSurvivesHostileSparseFrame sends each hostile
// sparse body over a negotiated binary connection: every one must cost
// exactly one bfErr frame — never a panic — and the connection must keep
// serving afterwards.
func TestPredictionServerSurvivesHostileSparseFrame(t *testing.T) {
	addr, srv := startPredictServer(t, echoPredict, DispatcherOptions{TopK: echoTopK})
	bc := dialFrames(t, addr)

	id := uint64(1)
	for name, hostile := range hostileSparseBodies() {
		err := bc.writeFrame(bfPredictTopK, id, func(b []byte) ([]byte, error) {
			return append(b, hostile...), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		body := expectFrame(t, bc, bfErr, id)
		if msg, _, err := decodeErrBody(body); err != nil || !strings.Contains(msg, "decoding sparse prediction batch") {
			t.Fatalf("%s: error frame %q, %v", name, msg, err)
		}
		id++
	}

	// The same connection still serves a valid top-k request and a valid
	// dense prediction.
	rng := rand.New(rand.NewSource(25))
	sp := synthSparseBatch(rng, 6, 4, 1, 2)
	err := bc.writeFrame(bfPredictTopK, id, func(b []byte) ([]byte, error) {
		return appendSparseBatch(b, 2, sp)
	})
	if err != nil {
		t.Fatal(err)
	}
	body := expectFrame(t, bc, bfTopK, id)
	hits, err := decodeTopKHits(body)
	if err != nil || len(hits) != 1 || len(hits[0]) != 2 {
		t.Fatalf("top-k after hostile frames: %v, %v", hits, err)
	}
	id++
	enc := synthBatch(rng, 3, 2, 2, false)
	err = bc.writeFrame(bfPredict, id, func(b []byte) ([]byte, error) {
		return appendEncryptedBatch(b, enc)
	})
	if err != nil {
		t.Fatal(err)
	}
	body = expectFrame(t, bc, bfPreds, id)
	if preds, err := decodePreds(body); err != nil || len(preds) != 2 {
		t.Fatalf("dense prediction after hostile frames: %v, %v", preds, err)
	}

	if got := srv.Stats().Panics; got != 0 {
		t.Fatalf("hostile geometry must be an error, not a recovered panic (%d)", got)
	}
}

// TestPredictionServerTopKWithoutEvaluator pins the refusal contract: a
// server whose dispatcher has no top-k evaluator answers sparse requests
// with a per-request error, and the connection keeps serving.
func TestPredictionServerTopKWithoutEvaluator(t *testing.T) {
	addr, srv := startPredictServer(t, echoPredict, DispatcherOptions{})
	cc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	rng := rand.New(rand.NewSource(26))
	sp := synthSparseBatch(rng, 4, 2, 1, 1)
	if _, err := cc.PredictTopK(context.Background(), sp, 1, 5*time.Second); err == nil {
		t.Fatal("server without a top-k evaluator served a sparse request")
	} else if errors.Is(err, ErrBusy) {
		t.Fatalf("refusal must not be retryable: %v", err)
	}
	preds, err := cc.Predict(context.Background(), synthBatch(rng, 3, 2, 1, false), 5*time.Second)
	if err != nil || len(preds) != 1 {
		t.Fatalf("dense prediction after top-k refusal: %v, %v", preds, err)
	}
	if srv.Stats().Panics != 0 {
		t.Fatalf("panics = %d", srv.Stats().Panics)
	}
}
