package wire

// Unit tests for the data-plane half of the codec: body round-trips,
// hostile truncation, the handshake, multiplexed prediction, and training
// submission. These use synthetic ciphertext structures — the codec moves
// big.Ints, it never interprets them — so they run without any crypto
// setup.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
	"cryptonn/internal/thresh"
)

func synthCt(rng *rand.Rand, eta int) *feip.Ciphertext {
	ct := &feip.Ciphertext{Ct0: new(big.Int).SetUint64(rng.Uint64()), Ct: make([]*big.Int, eta)}
	for i := range ct.Ct {
		// Mix widths so the fixed-width slab actually pads.
		ct.Ct[i] = new(big.Int).SetUint64(rng.Uint64() >> (uint(rng.Intn(8)) * 8))
	}
	return ct
}

func synthMatrix(rng *rand.Rand, rows, cols int, withRows bool) *securemat.EncryptedMatrix {
	m := &securemat.EncryptedMatrix{Rows: rows, Cols: cols, ColCts: make([]*feip.Ciphertext, cols)}
	for j := range m.ColCts {
		m.ColCts[j] = synthCt(rng, rows)
	}
	if withRows {
		m.RowCts = make([]*feip.Ciphertext, rows)
		for i := range m.RowCts {
			m.RowCts[i] = synthCt(rng, cols)
		}
	}
	return m
}

// synthLabels is a label matrix as the client sends it: FEBO elements only.
func synthLabels(rng *rand.Rand, rows, cols int) *securemat.EncryptedMatrix {
	m := &securemat.EncryptedMatrix{Rows: rows, Cols: cols, Elems: make([][]*febo.Ciphertext, rows)}
	for i := range m.Elems {
		m.Elems[i] = make([]*febo.Ciphertext, cols)
		for j := range m.Elems[i] {
			m.Elems[i][j] = &febo.Ciphertext{
				Cmt: new(big.Int).SetUint64(rng.Uint64()),
				Ct:  new(big.Int).SetUint64(rng.Uint64()),
			}
		}
	}
	return m
}

func synthBatch(rng *rand.Rand, features, classes, n int, withY bool) *core.EncryptedBatch {
	enc := &core.EncryptedBatch{
		Features: features, Classes: classes, N: n,
		X: synthMatrix(rng, features, n, true),
	}
	if withY {
		enc.Y = synthLabels(rng, classes, n)
	}
	return enc
}

func synthConvBatch(rng *rand.Rand) *core.EncryptedConvBatch {
	enc := &core.EncryptedConvBatch{
		C: 2, H: 4, W: 4, K: 3, Stride: 1, Pad: 1,
		OutH: 4, OutW: 4, Classes: 3, N: 2,
		Y: synthLabels(rng, 3, 2),
	}
	wl, nw := enc.WindowLen(), enc.NumWindows()
	enc.Windows = make([][]*feip.Ciphertext, enc.N)
	enc.Positions = make([][]*feip.Ciphertext, enc.N)
	for s := range enc.Windows {
		enc.Windows[s] = make([]*feip.Ciphertext, nw)
		for i := range enc.Windows[s] {
			enc.Windows[s][i] = synthCt(rng, wl)
		}
		enc.Positions[s] = make([]*feip.Ciphertext, wl)
		for i := range enc.Positions[s] {
			enc.Positions[s][i] = synthCt(rng, nw)
		}
	}
	return enc
}

func TestEncryptedBatchBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, withY := range []bool{false, true} {
		enc := synthBatch(rng, 5, 3, 4, withY)
		body, err := appendEncryptedBatch(nil, enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeEncryptedBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.Features != 5 || got.Classes != 3 || got.N != 4 {
			t.Fatalf("geometry mangled: %+v", got)
		}
		if !got.X.HasRows() {
			t.Fatal("optional row ciphertexts lost")
		}
		if (got.Y != nil) != withY {
			t.Fatalf("Y presence mangled (withY=%v)", withY)
		}
		// Re-encoding the decoded batch must be byte-identical: the
		// codec is canonical, so this is a full deep-equality check.
		body2, err := appendEncryptedBatch(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, body2) {
			t.Fatal("round-trip is not byte-identical")
		}
	}
}

func TestConvBatchBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc := synthConvBatch(rng)
	body, err := appendConvBatch(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeConvBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumWindows() != enc.NumWindows() || got.WindowLen() != enc.WindowLen() || got.N != enc.N {
		t.Fatalf("conv geometry mangled: %+v", got)
	}
	body2, err := appendConvBatch(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("round-trip is not byte-identical")
	}
}

func TestPredsBinaryRoundTrip(t *testing.T) {
	preds := []int{0, 7, -1, 9, 2}
	body, err := appendPreds(nil, preds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodePreds(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(preds) {
		t.Fatalf("got %d preds, want %d", len(got), len(preds))
	}
	for i := range preds {
		if got[i] != preds[i] {
			t.Fatalf("pred %d: got %d, want %d", i, got[i], preds[i])
		}
	}
}

func TestBinaryDecodeRejectsHostileBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	enc := synthBatch(rng, 3, 2, 2, true)
	body, err := appendEncryptedBatch(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must fail cleanly — no panic, no huge allocation.
	for n := 0; n < len(body); n++ {
		if _, err := decodeEncryptedBatch(body[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := decodeEncryptedBatch(append(bytes.Clone(body), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A count far beyond the body must fail before allocating.
	huge := []byte{0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 2, 1, 0, 0xFF, 0xFF, 0xFF}
	if _, err := decodeEncryptedBatch(huge); err == nil {
		t.Fatal("oversized section count accepted")
	}
	if _, err := decodePreds([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("oversized preds count accepted")
	}
	// A label section of 2²⁴−1 rows and no column is 10 bytes on the wire;
	// it must fail before a slice header is allocated per row.
	rowsOfNothing := []byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 1}
	if grew := allocatedDuring(func() {
		if _, err := decodeEncryptedBatch(rowsOfNothing); err == nil {
			t.Error("label section of rows without columns accepted")
		}
	}); grew > 1<<20 {
		t.Errorf("decoding a %d-byte label section allocated %d bytes", len(rowsOfNothing), grew)
	}
}

// hostileConvBody builds a bfSubmitConv body with the given geometry
// words and a token payload byte — enough to reach the geometry checks.
func hostileConvBody(c, h, w, k, stride, pad, outH, outW, classes, n uint32) []byte {
	var body []byte
	for _, v := range []uint32{c, h, w, k, stride, pad, outH, outW, classes, n} {
		body = binary.BigEndian.AppendUint32(body, v)
	}
	return append(body, 0) // flags
}

func TestDecodeConvBatchRejectsOverflowGeometry(t *testing.T) {
	// Each geometry word individually passes the per-field cap, but the
	// C·K·K product overflows int64 to a negative value (2^15·2^24·2^24 =
	// 2^63). The old in-memory product check let that through, disabling
	// readCtVec's shape checks and panicking in the Positions re-slicing.
	for name, body := range map[string][]byte{
		"windowLen overflows int64": hostileConvBody(1<<15, 1, 1, 1<<24, 1, 1, 1, 1, 1, 1),
		"windowLen over limit":      hostileConvBody(2, 1, 1, 1<<13, 1, 1, 1, 1, 1, 1),
		"numWindows over limit":     hostileConvBody(1, 1, 1, 1, 1, 1, 1<<13, 1<<13, 1, 1),
		"total windows over limit":  hostileConvBody(1, 1, 1, 1, 1, 1, 1<<12, 1<<12, 1, 2),
		"zero channel dim":          hostileConvBody(0, 1, 1, 1, 1, 1, 1, 1, 1, 1),
		"zero sample count":         hostileConvBody(1, 1, 1, 1, 1, 1, 1, 1, 1, 0),
	} {
		if _, err := decodeConvBatch(body); err == nil {
			t.Errorf("%s: hostile conv geometry accepted", name)
		} else if !errors.Is(err, ErrBinaryEncoding) {
			t.Errorf("%s: want ErrBinaryEncoding, got %v", name, err)
		}
	}
}

func TestAppendU32MatchesDecoderLimit(t *testing.T) {
	// The encoder must reject exactly what the decoder rejects, so an
	// oversize batch fails fast locally instead of being refused by every
	// binary peer after the bytes are on the wire.
	if _, err := appendU32(nil, maxBinCount); err != nil {
		t.Fatalf("value at the shared cap rejected: %v", err)
	}
	if _, err := appendU32(nil, maxBinCount+1); err == nil {
		t.Fatal("encoder accepted a value the decoder always rejects")
	}
	b, err := appendU32(nil, maxBinCount)
	if err != nil {
		t.Fatal(err)
	}
	if c := (&binCursor{b: b}); c.u32() != maxBinCount || c.err != nil {
		t.Fatalf("cap value did not round-trip: %v", c.err)
	}
}

// startPredictServer boots a coalescing prediction server around predict
// and returns its address.
func startPredictServer(t *testing.T, predict PredictFunc, opts DispatcherOptions) (string, *PredictionServer) {
	t.Helper()
	s, err := NewCoalescingPredictionServer(predict, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Serve(context.Background(), l)
	}()
	t.Cleanup(func() {
		_ = s.Close()
		<-done
	})
	return l.Addr().String(), s
}

// echoPredict returns class i for sample i — enough to check demux.
func echoPredict(enc *core.EncryptedBatch) ([]int, error) {
	preds := make([]int, enc.N)
	for i := range preds {
		preds[i] = i
	}
	return preds, nil
}

func TestClientConnHandshake(t *testing.T) {
	addr, srv := startPredictServer(t, echoPredict, DispatcherOptions{})
	cc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	rng := rand.New(rand.NewSource(4))
	preds, err := cc.Predict(context.Background(), synthBatch(rng, 3, 2, 2, false), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 || preds[0] != 0 || preds[1] != 1 {
		t.Fatalf("bad preds %v", preds)
	}
	if srv.accepted.Load() != 1 || srv.Stats().HandshakeRejected != 0 {
		t.Fatalf("connection accounting: accepted=%d rejected=%d", srv.accepted.Load(), srv.Stats().HandshakeRejected)
	}
}

// TestDialSurfacesRefusedHandshake: a peer that closes instead of
// acknowledging the hello fails the dial with ErrCodecRefused.
func TestDialSurfacesRefusedHandshake(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			_ = conn.Close()
		}
	}()
	if _, err := Dial(l.Addr().String()); !errors.Is(err, ErrCodecRefused) {
		t.Fatalf("want ErrCodecRefused, got %v", err)
	}
}

func TestClientConnMultiplexesOutOfOrder(t *testing.T) {
	// Delay evaluations by decreasing amounts so responses complete in
	// reverse submission order; every caller must still get its own
	// sample count back.
	var mu sync.Mutex
	seen := 0
	predict := func(enc *core.EncryptedBatch) ([]int, error) {
		mu.Lock()
		seen++
		delay := time.Duration(4-seen) * 30 * time.Millisecond
		mu.Unlock()
		time.Sleep(delay)
		return echoPredict(enc)
	}
	// MaxCoalescedSamples 1 forces one evaluation per request so the
	// reordering actually happens.
	addr, _ := startPredictServer(t, predict, DispatcherOptions{MaxCoalescedSamples: 1})
	cc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	rng := rand.New(rand.NewSource(5))
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		n := i + 1
		enc := synthBatch(rng, 2, 2, n, false)
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			preds, err := cc.Predict(context.Background(), enc, 10*time.Second)
			if err == nil && len(preds) != n {
				err = fmt.Errorf("%d preds for %d samples", len(preds), n)
			}
			errs[slot] = err
		}(i)
		time.Sleep(10 * time.Millisecond) // order the submissions
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestBinaryErrFrameMapsToErrBusy(t *testing.T) {
	predict := func(*core.EncryptedBatch) ([]int, error) { return nil, errors.New("boom") }
	// Queue of 1 and a slow first evaluation force ErrBusy on the rest;
	// simpler: just check a plain failure maps to a non-retryable error
	// and a busy dispatcher to ErrBusy via the dispatcher's own path.
	addr, _ := startPredictServer(t, predict, DispatcherOptions{})
	cc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	rng := rand.New(rand.NewSource(7))
	_, err = cc.Predict(context.Background(), synthBatch(rng, 2, 2, 1, false), 5*time.Second)
	if err == nil || errors.Is(err, ErrBusy) {
		t.Fatalf("want non-retryable failure, got %v", err)
	}
}

func TestTrainingServerBinarySubmission(t *testing.T) {
	ts := NewTrainingServer(nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ts.Serve(context.Background(), l)
	}()
	defer func() {
		_ = ts.Close()
		<-done
	}()

	rng := rand.New(rand.NewSource(8))
	cc, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	want := synthBatch(rng, 4, 3, 3, true)
	if err := cc.SubmitBatches([]*core.EncryptedBatch{want}); err != nil {
		t.Fatal(err)
	}
	_ = cc.Close()

	cc, err = Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conv := synthConvBatch(rng)
	if err := cc.SubmitConvBatches([]*core.EncryptedConvBatch{conv}); err != nil {
		t.Fatal(err)
	}
	_ = cc.Close()

	waitSubmissions(t, ts, 2)
	got := ts.Batches()
	if len(got) != 1 {
		t.Fatalf("%d batches, want 1", len(got))
	}
	wantBody, _ := appendEncryptedBatch(nil, want)
	gotBody, err := appendEncryptedBatch(nil, got[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBody, gotBody) {
		t.Fatal("batch mangled in transit")
	}
	if n := len(ts.ConvBatches()); n != 1 {
		t.Fatalf("%d conv batches, want 1", n)
	}
}

// dialFrames opens a raw connection and completes the handshake by hand,
// for frame-level tests.
func dialFrames(t testing.TB, addr string) *binConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	hello := helloFrame(CodecVersion)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	if err := readAck(conn); err != nil {
		t.Fatal(err)
	}
	return newBinConn(conn)
}

// startTrainingServerConn boots a TrainingServer and returns it with a raw
// connection for frame-level tests.
func startTrainingServerConn(t *testing.T) (*TrainingServer, *binConn) {
	t.Helper()
	ts := NewTrainingServer(nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ts.Serve(context.Background(), l)
	}()
	t.Cleanup(func() {
		_ = ts.Close()
		<-done
	})
	return ts, dialFrames(t, l.Addr().String())
}

// expectFrame reads one frame and fails unless it has the wanted type/id.
func expectFrame(t testing.TB, bc *binConn, wantType byte, wantID uint64) []byte {
	t.Helper()
	ftype, id, body, err := bc.readFrame()
	if err != nil {
		t.Fatalf("reading frame: %v", err)
	}
	if ftype != wantType || id != wantID {
		t.Fatalf("frame type %#x id %d, want %#x id %d", ftype, id, wantType, wantID)
	}
	return body
}

func TestTrainingServerSurvivesHostileConvFrame(t *testing.T) {
	// The exact remote-DoS frame from the overflow report: crafted conv
	// geometry must cost the client a bfErr, and the connection (and
	// process) must keep serving afterwards.
	ts, bc := startTrainingServerConn(t)
	hostile := hostileConvBody(1<<15, 1, 1, 1<<24, 1, 1, 1, 1, 1, 1)
	err := bc.writeFrame(bfSubmitConv, 1, func(b []byte) ([]byte, error) {
		return append(b, hostile...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	body := expectFrame(t, bc, bfErr, 1)
	if msg, _, err := decodeErrBody(body); err != nil || !strings.Contains(msg, "decoding conv batch") {
		t.Fatalf("error frame %q, %v", msg, err)
	}
	// The same connection still completes a submission round.
	if err := bc.writeFrame(bfDone, 2, emptyBody); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, bc, bfAck, 2)
	if ts.panics.Load() != 0 {
		t.Fatalf("geometry rejection should be an error, not a recovered panic (%d)", ts.panics.Load())
	}
}

func TestTrainingServerRefusesSubmissionsThatContradictTheirHeader(t *testing.T) {
	// A frame may declare a matrix with no columns, and the decoder rightly
	// reads zero ciphertexts for it; a batch that claims samples over such a
	// matrix used to be stored and then crashed the trainer. Every batch
	// whose matrices disagree with its header costs one bfErr, is not stored,
	// and the connection keeps serving.
	ts, bc := startTrainingServerConn(t)
	rng := rand.New(rand.NewSource(5))
	empty := func(rows int) *securemat.EncryptedMatrix {
		return &securemat.EncryptedMatrix{Rows: rows, ColCts: []*feip.Ciphertext{}}
	}
	noLabels := func(rows int) *securemat.EncryptedMatrix {
		return &securemat.EncryptedMatrix{Rows: rows, Elems: make([][]*febo.Ciphertext, rows)}
	}
	submissions := []struct {
		name string
		edit func(b *core.EncryptedBatch)
		want string
	}{
		{"N=1 over zero columns", func(b *core.EncryptedBatch) { b.N, b.X, b.Y = 1, empty(b.Features), &securemat.EncryptedMatrix{} }, "claims 1 samples"},
		{"fewer samples claimed than carried", func(b *core.EncryptedBatch) { b.N = 1 }, "claims 1 samples"},
		{"feature count", func(b *core.EncryptedBatch) { b.Features++ }, "feature rows"},
		{"labels for another batch size", func(b *core.EncryptedBatch) { b.Y = synthLabels(rng, b.Classes, b.N+1) }, "label section"},
		// Labels without the FEBO elements the trainer reads used to be
		// acked, stored and fail the training run later.
		{"labels without elements", func(b *core.EncryptedBatch) { b.Y = &securemat.EncryptedMatrix{} }, "label section"},
		{"labels of no sample", func(b *core.EncryptedBatch) { b.Y = noLabels(b.Classes) }, "label section"},
		{"class count", func(b *core.EncryptedBatch) { b.Classes++ }, "label section"},
		{"no labels", func(b *core.EncryptedBatch) { b.Y = nil }, "without labels"},
	}
	id := uint64(0)
	for _, sub := range submissions {
		b := synthBatch(rng, 3, 2, 2, true)
		sub.edit(b)
		id++
		body, err := appendEncryptedBatch(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if id == 1 && len(body) != 42 {
			t.Fatalf("the zero-column batch encodes to %d bytes, want 42 (the report's 51-byte frame at codec version 5)", len(body))
		}
		if err := bc.writeFrame(bfSubmit, id, rawBody(body)); err != nil {
			t.Fatal(err)
		}
		if msg, _, err := decodeErrBody(expectFrame(t, bc, bfErr, id)); err != nil || !strings.Contains(msg, sub.want) {
			t.Errorf("%s: error frame %q, %v; want %q", sub.name, msg, err, sub.want)
		}
	}
	conv := synthConvBatch(rng)
	for _, y := range []*securemat.EncryptedMatrix{synthLabels(rng, conv.Classes, conv.N+1), {}, noLabels(conv.Classes)} {
		conv.Y = y
		id++
		if err := bc.writeFrame(bfSubmitConv, id, func(buf []byte) ([]byte, error) { return appendConvBatch(buf, conv) }); err != nil {
			t.Fatal(err)
		}
		if msg, _, err := decodeErrBody(expectFrame(t, bc, bfErr, id)); err != nil || !strings.Contains(msg, "label section") {
			t.Errorf("conv labels %d×%d for %d samples: error frame %q, %v", y.Rows, y.Cols, conv.N, msg, err)
		}
	}
	if len(ts.Batches()) != 0 || len(ts.ConvBatches()) != 0 {
		t.Fatalf("stored %d dense and %d conv batches, want none", len(ts.Batches()), len(ts.ConvBatches()))
	}
	// The same connection still delivers a well-formed batch and completes.
	id++
	good := synthBatch(rng, 3, 2, 2, true)
	if err := bc.writeFrame(bfSubmit, id, func(buf []byte) ([]byte, error) { return appendEncryptedBatch(buf, good) }); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, bc, bfAck, id)
	id++
	if err := bc.writeFrame(bfDone, id, emptyBody); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, bc, bfAck, id)
	if len(ts.Batches()) != 1 || ts.panics.Load() != 0 {
		t.Fatalf("%d batches stored, %d panics; want 1 and 0", len(ts.Batches()), ts.panics.Load())
	}
}

func TestTrainingServerBinaryPanicContained(t *testing.T) {
	// A panic anywhere in frame handling (standing in for a future codec
	// bug) must be answered as a bfErr on that frame — recover, count,
	// log — never a process crash.
	orig := decodeSubmitConv
	decodeSubmitConv = func([]byte) (*core.EncryptedConvBatch, error) { panic("injected decoder bug") }
	t.Cleanup(func() { decodeSubmitConv = orig })

	ts, bc := startTrainingServerConn(t)
	err := bc.writeFrame(bfSubmitConv, 3, func(b []byte) ([]byte, error) {
		return append(b, 0xAB), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	body := expectFrame(t, bc, bfErr, 3)
	if msg, _, err := decodeErrBody(body); err != nil || !strings.Contains(msg, "internal error") {
		t.Fatalf("error frame %q, %v", msg, err)
	}
	if got := ts.panics.Load(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
	// The connection survives the contained panic.
	if err := bc.writeFrame(bfDone, 4, emptyBody); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, bc, bfAck, 4)
	waitSubmissions(t, ts, 1)
}

func TestPredictionServerDecoderPanicContained(t *testing.T) {
	// A panic while decoding a prediction frame (standing in for a codec
	// bug) runs on the connection's read loop: it must cost that request
	// one "internal error" frame, and the connection keeps serving.
	orig := decodePredictFrame
	t.Cleanup(func() { decodePredictFrame = orig })
	for _, ftype := range []byte{bfPredict, bfPredictTopK} {
		t.Run(frameName(ftype), func(t *testing.T) {
			var tripped atomic.Bool
			decodePredictFrame = func(got byte, body []byte) (*pendingPredict, error) {
				if got == ftype && tripped.CompareAndSwap(false, true) {
					panic("injected decoder bug")
				}
				return orig(got, body)
			}
			addr, srv := startPredictServer(t, echoPredict, DispatcherOptions{TopK: echoTopK})
			bc := dialFrames(t, addr)
			if err := bc.writeFrame(ftype, 1, func(b []byte) ([]byte, error) { return append(b, 0xAB), nil }); err != nil {
				t.Fatal(err)
			}
			if msg, _, err := decodeErrBody(expectFrame(t, bc, bfErr, 1)); err != nil || !strings.Contains(msg, "internal error") {
				t.Fatalf("error frame %q, %v", msg, err)
			}
			if got := srv.Stats().Panics; got != 1 {
				t.Fatalf("panics = %d, want 1", got)
			}
			enc := synthBatch(rand.New(rand.NewSource(27)), 3, 2, 2, false)
			if err := bc.writeFrame(bfPredict, 2, func(b []byte) ([]byte, error) { return appendEncryptedBatch(b, enc) }); err != nil {
				t.Fatal(err)
			}
			if preds, err := decodePreds(expectFrame(t, bc, bfPreds, 2)); err != nil || len(preds) != 2 {
				t.Fatalf("dense prediction after the contained panic: %v, %v", preds, err)
			}
		})
	}
}

// waitSubmissions requires the server's submission count to reach exactly
// n. The server acks a Done frame before it counts it, so a client that has
// read the ack may still see the old count for a moment.
func waitSubmissions(t *testing.T, ts *TrainingServer, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.WaitSubmissions(ctx, n); err != nil || ts.Submissions() != n {
		t.Fatalf("%d submissions, want %d (%v)", ts.Submissions(), n, err)
	}
}

func TestClientConnPredictCancellation(t *testing.T) {
	block := make(chan struct{})
	predict := func(enc *core.EncryptedBatch) ([]int, error) {
		<-block
		return echoPredict(enc)
	}
	addr, _ := startPredictServer(t, predict, DispatcherOptions{})
	cc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	rng := rand.New(rand.NewSource(9))
	_, err = cc.Predict(ctx, synthBatch(rng, 2, 2, 1, false), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The connection must survive the abandoned request: unblock the
	// server (the orphaned evaluation's late reply is dropped) and run a
	// fresh request on the same connection.
	close(block)
	preds, err := cc.Predict(context.Background(), synthBatch(rng, 2, 2, 1, false), 5*time.Second)
	if err != nil {
		t.Fatalf("connection poisoned by cancellation: %v", err)
	}
	if len(preds) != 1 {
		t.Fatalf("bad preds %v", preds)
	}
}

// TestDecodersRejectUnknownFlagBits sets, in a valid body of every decoder
// that reads a flag byte, each bit its layout does not name: the body must
// fail with ErrBinaryEncoding, not decode as if the bit were clear. The
// conv batch's X bit is one of them, since its X travels as windows.
func TestDecodersRejectUnknownFlagBits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	batch, err := appendEncryptedBatch(nil, synthBatch(rng, 3, 2, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	conv, err := appendConvBatch(nil, synthConvBatch(rng))
	if err != nil {
		t.Fatal(err)
	}
	partials, err := appendPartialKeys(nil, &partialKeys{NodeIndex: 3, Ks: []*big.Int{big.NewInt(31), big.NewInt(32)},
		Proof: &thresh.EqProof{C: big.NewInt(0xABCDEF), Z: big.NewInt(0x123456789)}})
	if err != nil {
		t.Fatal(err)
	}
	decodeBatch := func(b []byte) error { _, err := decodeEncryptedBatch(b); return err }
	for _, tc := range []struct {
		name   string
		body   []byte
		at     int  // offset of the flag byte
		known  byte // the bits the layout names
		decode func([]byte) error
	}{
		{"EncryptedBatch", batch, 12, batchFlagX | batchFlagY, decodeBatch},
		{"EncryptedMatrix X", batch, 12 + 1 + 8, matFlagRows, decodeBatch},
		{"EncryptedConvBatch", conv, 40, batchFlagY, func(b []byte) error { _, err := decodeConvBatch(b); return err }},
		{"partial keys", partials, 4, partialFlagProof, func(b []byte) error { _, err := decodePartialKeys(b, anyGroup); return err }},
	} {
		if err := tc.decode(tc.body); err != nil {
			t.Fatalf("%s: the valid body fails: %v", tc.name, err)
		}
		if tc.body[tc.at] != tc.known {
			t.Fatalf("%s: flag byte %#02x at offset %d, want every known bit %#02x", tc.name, tc.body[tc.at], tc.at, tc.known)
		}
		for bit := byte(1); bit != 0; bit <<= 1 {
			if bit&tc.known != 0 {
				continue
			}
			body := bytes.Clone(tc.body)
			body[tc.at] |= bit
			if err := tc.decode(body); !errors.Is(err, ErrBinaryEncoding) {
				t.Errorf("%s with flag bit %#02x set: got %v, want ErrBinaryEncoding", tc.name, bit, err)
			}
		}
	}
}
