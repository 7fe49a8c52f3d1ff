package wire

// Hostile-peer tests, run against all three server types: a connection
// that does not open with the hello is closed and counted; a frame header
// declaring a gigabyte costs a bounded step of heap; malformed and
// misdirected frames cost one bfErr each and the connection keeps serving.

import (
	"context"
	"encoding/binary"
	"errors"
	"math/big"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/febo"
	"cryptonn/internal/group"
)

// hostileTarget is one running server plus what a test needs to poke it.
type hostileTarget struct {
	name     string
	addr     string
	rejected func() uint64 // handshake rejections so far
	// A well-formed request this server answers with wantType.
	reqType, wantType byte
	fill              fillFunc
}

func startHostileTargets(t *testing.T) []hostileTarget {
	t.Helper()
	listen := func(serve func(context.Context, net.Listener) error, closer func() error) string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { defer close(done); _ = serve(context.Background(), l) }()
		t.Cleanup(func() { _ = closer(); <-done })
		return l.Addr().String()
	}
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	as, err := NewAuthorityServerOpts(auth, nil, AuthorityServerOptions{MaxEta: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrainingServer(nil)
	ps, err := NewCoalescingPredictionServer(echoPredict, nil, DispatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return []hostileTarget{
		{"authority", listen(as.Serve, as.Close), func() uint64 { return as.Stats().HandshakeRejected },
			bfFEBOPublic, bfPublicKey, emptyBody},
		{"training", listen(ts.Serve, ts.Close), func() uint64 { return ts.Stats().HandshakeRejected },
			bfDone, bfAck, emptyBody},
		{"prediction", listen(ps.Serve, ps.Close), func() uint64 { return ps.Stats().HandshakeRejected },
			bfPredict, bfPreds, func(b []byte) ([]byte, error) {
				return appendEncryptedBatch(b, synthBatch(rand.New(rand.NewSource(1)), 3, 2, 2, false))
			}},
	}
}

func TestServersCloseConnectionsWithoutHello(t *testing.T) {
	wrongVersion := helloFrame(CodecVersion + 1)
	for _, tg := range startHostileTargets(t) {
		for i, first := range [][]byte{
			{0, 0, 0, 0, 0, 0, 0, 0xda}, // a length header of the retired gob framing
			wrongVersion[:],
		} {
			conn, err := net.Dial("tcp", tg.addr)
			if err != nil {
				t.Fatal(err)
			}
			// More bytes follow the bad opening; the server must not act on them.
			if _, err := conn.Write(append(first, make([]byte, 64)...)); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 8)); err == nil || IsTimeout(err) {
				t.Errorf("%s: bad opening %d answered with %d bytes (err %v), want a closed connection", tg.name, i, n, err)
			}
			_ = conn.Close()
			waitFor(t, func() bool { return tg.rejected() == uint64(i+1) })
		}
		// A listener that just rejected garbage still serves a real client.
		bc := dialFrames(t, tg.addr)
		if err := bc.writeFrame(tg.reqType, 1, tg.fill); err != nil {
			t.Fatal(err)
		}
		expectFrame(t, bc, tg.wantType, 1)
	}
}

// allocatedDuring reports the heap allocated process-wide while f runs.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// gigabyteHeader is a frame header declaring a MaxFrame body.
func gigabyteHeader() []byte {
	hdr := make([]byte, binHeaderLen)
	binary.BigEndian.PutUint32(hdr, MaxFrame)
	hdr[4] = bfPredict
	return hdr
}

func TestOversizeDeclaredBodyCostsBoundedHeap(t *testing.T) {
	const bound = 2 << 20
	for _, tg := range startHostileTargets(t) {
		bc := dialFrames(t, tg.addr)
		grew := allocatedDuring(func() {
			if _, err := bc.conn.Write(gigabyteHeader()); err != nil {
				t.Fatal(err)
			}
			time.Sleep(100 * time.Millisecond) // let the server read the header and wait for a body
		})
		if grew > bound {
			t.Errorf("%s: a header declaring 1 GiB then silence allocated %d bytes, want < %d", tg.name, grew, bound)
		}
		_ = bc.conn.Close()
	}

	// Client side: a server that acknowledges, declares a gigabyte and hangs up.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if acceptHello(conn) == nil {
			_, _ = conn.Write(gigabyteHeader())
		}
	}()
	var callErr error
	grew := allocatedDuring(func() {
		cc, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cc.Close()
		_, callErr = cc.request(context.Background(), bfFEBOPublic, bfPublicKey, emptyBody)
	})
	if callErr == nil || !strings.Contains(callErr.Error(), "reading frame body") {
		t.Errorf("client: want a frame-body read error, got %v", callErr)
	}
	if grew > bound {
		t.Errorf("client: a header declaring 1 GiB then close allocated %d bytes, want < %d", grew, bound)
	}

	// One byte over MaxFrame is refused outright, with the typed error.
	var mc memConn
	hdr := gigabyteHeader()
	binary.BigEndian.PutUint32(hdr, MaxFrame+1)
	mc.Write(hdr)
	if _, _, _, err := newBinConn(&mc).readFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("want ErrFrameTooLarge, got %v", err)
	}
}

// TestServersAnswerMalformedFramesWithOneErr sends every server a series of
// malformed or misdirected frames. Each must cost exactly one bfErr — the
// next frame read is the answer to the next request, so a double answer or
// a dropped connection fails the sequence — and the same connection then
// serves a well-formed request.
func TestServersAnswerMalformedFramesWithOneErr(t *testing.T) {
	wide := new(big.Int).Lsh(big.NewInt(1), 100) // 13 bytes: wider than the 64-bit test group
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	boKey := must(appendBORequest(nil, []*big.Int{big.NewInt(4)}, febo.OpAdd, []int64{1}))
	badOp := append([]byte{0x7f}, boKey[1:]...)
	sparse := must(appendSparseKeyRequest(nil, 8, []int{1, 5}, []int64{3, 4}))
	unsorted := append([]byte(nil), sparse...)
	unsorted[8], unsorted[10] = 5, 1 // swap the two uvarint indices
	keyFrames := []struct {
		name  string
		ftype byte
		body  []byte
		want  string // substring of the error message
	}{
		{"truncated slab", bfBOKeyBatch, boKey[:len(boKey)-2], "malformed"},
		{"truncated scalars", bfIPKeyBatch, must(appendScalarMatrix(nil, [][]int64{{1, 2, 3}}))[:9], "malformed"},
		{"count over MaxEta", bfIPKeyBatch, must(appendScalarMatrix(nil, make([][]int64, 9))), "exceeds server limits"},
		{"dimension over MaxEta", bfFEIPPublic, must(appendU32(nil, 9)), "exceeds server limits"},
		{"slab count over MaxEta", bfBOKeyBatch, []byte{byte(febo.OpAdd), 0, 0, 0, 9, 0, 1}, "exceeds server limits"},
		{"over-wide element", bfBOKeyBatch, must(appendBORequest(nil, []*big.Int{wide}, febo.OpAdd, []int64{1})), "element width"},
		{"unsorted sparse index", bfIPKeySparse, unsorted, "out of order"},
		{"sparse index out of range", bfIPKeySparse, []byte{0, 0, 0, 8, 0, 0, 0, 1, 9, 2}, "out of order or range"},
		{"bad op", bfBOKeyBatch, badOp, "invalid FEBO op"},
		{"trailing bytes", bfFEBOPublic, []byte{0}, "trailing"},
		{"data frame at the authority", bfSubmit, nil, "cannot serve"},
		{"response frame as request", bfKey, nil, "cannot serve"},
		{"unknown frame type", 0x7e, nil, "cannot serve"},
		{"retired single-key frame", 0x32, must(appendScalarMatrix(nil, [][]int64{{1}})), "cannot serve"},
	}
	for _, tg := range startHostileTargets(t) {
		bc := dialFrames(t, tg.addr)
		id := uint64(0)
		for _, kf := range keyFrames {
			want := kf.want
			if tg.name != "authority" {
				if kf.ftype == bfSubmit {
					continue
				}
				want = "cannot serve" // key frames are not these servers' business
			}
			id++
			if err := bc.writeFrame(kf.ftype, id, rawBody(kf.body)); err != nil {
				t.Fatal(err)
			}
			msg, retryable, err := decodeErrBody(expectFrame(t, bc, bfErr, id))
			if err != nil || retryable || !strings.Contains(msg, want) {
				t.Errorf("%s: %s: error frame %q (retryable %v, %v), want %q", tg.name, kf.name, msg, retryable, err, want)
			}
		}
		id++
		if err := bc.writeFrame(tg.reqType, id, tg.fill); err != nil {
			t.Fatal(err)
		}
		expectFrame(t, bc, tg.wantType, id)
	}
}
