package wire

// Group commit on one connection: frames queued together share a Write, a
// failing fill or Write costs exactly what it must, and nothing queued is
// stranded by a held reply or a closing connection.

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/group"
)

// gatedConn holds every Write after the first (the handshake's) until
// release closes, announcing each on entered; writes then go to w, the
// wrapped connection unless a test routes them elsewhere. Reads pass
// straight through.
type gatedConn struct {
	net.Conn
	w       net.Conn
	writes  atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func newGatedConn(conn net.Conn) *gatedConn {
	// entered has room for every gated Write a test makes: the writes after
	// release announce themselves too, and nobody reads those.
	return &gatedConn{Conn: conn, w: conn, entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gatedConn) Write(p []byte) (int, error) {
	if g.writes.Add(1) > 1 {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.w.Write(p)
}

// pendingLen is the byte length of the frames queued behind the Write in
// flight.
func (c *binConn) pendingLen() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return len(c.pending)
}

func TestWriteFrameFailedFillKeepsQueuedFrames(t *testing.T) {
	var mc memConn
	bc := newBinConn(&mc)
	if err := bc.holdFrame(bfPreds, 1, func(b []byte) ([]byte, error) { return appendPreds(b, []int{4, 2}) }); err != nil {
		t.Fatal(err)
	}
	// The failing fill has already appended part of its body.
	errFill := errors.New("fill failed")
	err := bc.writeFrame(bfPredict, 2, func(b []byte) ([]byte, error) { return append(b, 0xAB, 0xCD, 0xEF), errFill })
	if !errors.Is(err, errFill) {
		t.Fatalf("failing fill returned %v", err)
	}
	if bc.broken() != nil {
		t.Fatalf("a failing fill broke the connection: %v", bc.broken())
	}
	if err := bc.writeFrame(bfPreds, 3, func(b []byte) ([]byte, error) { return appendPreds(b, []int{7}) }); err != nil {
		t.Fatal(err)
	}
	rd := newBinConn(&mc)
	for _, want := range []struct {
		id    uint64
		preds []int
	}{{1, []int{4, 2}}, {3, []int{7}}} {
		preds, err := decodePreds(expectFrame(t, rd, bfPreds, want.id))
		if err != nil || !slices.Equal(preds, want.preds) {
			t.Fatalf("frame %d decodes to %v, %v; want %v", want.id, preds, err, want.preds)
		}
	}
	if mc.Len() != 0 {
		t.Fatalf("%d bytes after the two good frames", mc.Len())
	}
}

func TestFaultWriteFailureFailsEveryCarriedCall(t *testing.T) {
	// One caller's Write is in flight and held; several more queue their
	// frames behind it. The Write then fails: the connection must close and
	// every caller — the writer and each frame riding on it — must get an
	// error, none may hang, and later calls fail at once. A reset closes
	// the socket itself; a write deadline fails the Write and leaves the
	// socket open, so closing it is the client's job.
	for _, tc := range []struct {
		name string
		fail func(g *gatedConn, raw net.Conn)
	}{
		{"reset", func(g *gatedConn, raw net.Conn) {
			g.w = NewFaultConn(raw, FaultPlan{Mode: FaultReset})
		}},
		{"deadline", func(_ *gatedConn, raw net.Conn) {
			_ = raw.SetWriteDeadline(time.Unix(1, 0))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, _ := serveAuthority(t, authority.AllowAll())
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = raw.Close() })
			g := newGatedConn(raw)
			cc := newClientConn(g)
			const callers = 5
			errs := make(chan error, callers)
			call := func() {
				_, err := cc.request(context.Background(), bfFEBOPublic, bfPublicKey, emptyBody)
				errs <- err
			}
			go call()
			select {
			case <-g.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("the first frame never reached Write")
			}
			for range callers - 1 {
				go call()
			}
			for deadline := time.Now().Add(5 * time.Second); cc.bc.pendingLen() < (callers-1)*binHeaderLen; {
				if time.Now().After(deadline) {
					t.Fatalf("%d bytes queued behind the held Write, want %d", cc.bc.pendingLen(), (callers-1)*binHeaderLen)
				}
				time.Sleep(time.Millisecond)
			}
			tc.fail(g, raw)
			close(g.release)
			for i := range callers {
				select {
				case err := <-errs:
					if err == nil {
						t.Fatalf("caller %d succeeded over a failed Write", i)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d callers still waiting after the Write failed", callers-i, callers)
				}
			}
			_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := raw.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("connection still open after the failed Write (read: %v)", err)
			}
			if _, err := cc.request(context.Background(), bfFEBOPublic, bfPublicKey, emptyBody); err == nil {
				t.Fatal("a call after the failure succeeded")
			}
		})
	}
}

func TestAuthorityAnswersBeforeWaitingOnAHalfFrame(t *testing.T) {
	// The authority holds replies only while a whole next request has
	// arrived: a request followed by half of another is answered at once,
	// and the second is answered when the rest of it comes.
	addr, _ := serveAuthority(t, authority.AllowAll())
	bc := dialFrames(t, addr)
	request := func(id uint64) []byte {
		return binFrame(t, bfIPKeySparse, id, func(b []byte) ([]byte, error) {
			return appendSparseKeyRequest(b, 8, []int{1, 3}, []int64{2, -1})
		})
	}
	first, second := request(1), request(2)
	half := len(second) / 2
	if _, err := bc.conn.Write(append(first, second[:half]...)); err != nil {
		t.Fatal(err)
	}
	_ = bc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	expectFrame(t, bc, bfKey, 1)
	if _, err := bc.conn.Write(second[half:]); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, bc, bfKey, 2)
}

// gatedListener wraps every accepted connection in a gatedConn.
type gatedListener struct {
	net.Listener
	conns chan *gatedConn
}

func (l gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	g := newGatedConn(c)
	l.conns <- g
	return g, nil
}

func TestClosingConnectionSendsFramesRidingAnotherWrite(t *testing.T) {
	// A handler returns — as the training server's does after the done ack —
	// while one writer's Write is in flight and a held frame waits behind
	// it. The connection must put both on the socket before it closes.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := gatedListener{l, make(chan *gatedConn, 1)}
	var s connServer
	s.init("test", nil)
	handled := make(chan error, 1)
	served := make(chan struct{})
	var writers sync.WaitGroup
	go func() {
		defer close(served)
		_ = s.serve(context.Background(), gl, func(bc *binConn) {
			g := <-gl.conns
			writers.Add(1)
			go func() { defer writers.Done(); _ = bc.writeFrame(bfAck, 1, emptyBody) }()
			<-g.entered // frame 1's Write is in flight
			err := bc.holdFrame(bfAck, 2, emptyBody)
			gl.conns <- g
			handled <- err
		})
	}()
	t.Cleanup(func() { _ = s.Close(); <-served; writers.Wait() })
	bc := dialFrames(t, l.Addr().String())
	if err := <-handled; err != nil {
		t.Fatalf("held frame: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // a connection that closes early has done so by now
	close((<-gl.conns).release)
	_ = bc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	expectFrame(t, bc, bfAck, 1)
	expectFrame(t, bc, bfAck, 2)
	if _, _, _, err := bc.readFrame(); err == nil {
		t.Fatal("a frame after the two queued ones")
	}
}

// stepConn lets each Write through only when the test sends on release,
// announcing it on entered first; written bytes collect in the memConn.
type stepConn struct {
	memConn
	entered, release chan struct{}
}

func (s *stepConn) Write(p []byte) (int, error) {
	s.entered <- struct{}{}
	<-s.release
	return s.memConn.Write(p)
}

func TestWriterReturnsWhileOthersKeepQueueing(t *testing.T) {
	// A leader writes its own frame and the frames queued behind it, then
	// returns: while other writers keep queueing, its caller waits for a
	// bounded number of Writes, not until the connection goes idle.
	sc := &stepConn{entered: make(chan struct{}), release: make(chan struct{})}
	bc := newBinConn(sc)
	returned := make([]chan error, 5)
	write := func(id uint64) {
		returned[id] = make(chan error, 1)
		go func() { returned[id] <- bc.writeFrame(bfAck, id, emptyBody) }()
	}
	waitQueued := func() {
		for deadline := time.Now().Add(5 * time.Second); bc.pendingLen() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no frame queued behind the Write in flight")
			}
		}
	}
	waitReturned := func(id uint64) {
		select {
		case err := <-returned[id]:
			if err != nil {
				t.Fatalf("writer %d: %v", id, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("writer %d has not returned while others keep queueing", id)
		}
	}
	write(1)
	<-sc.entered // Write 1 carries frame 1
	write(2)
	waitQueued()
	sc.release <- struct{}{}
	<-sc.entered // Write 2 carries frame 2
	write(3)
	waitQueued()
	sc.release <- struct{}{}
	waitReturned(1)
	waitReturned(2)
	<-sc.entered // Write 3 carries frame 3
	write(4)
	waitQueued()
	sc.release <- struct{}{}
	<-sc.entered
	sc.release <- struct{}{}
	waitReturned(3)
	waitReturned(4)
	rd := newBinConn(&sc.memConn)
	for id := uint64(1); id <= 4; id++ {
		expectFrame(t, rd, bfAck, id)
	}
}

// widestWriteListener records the longest Write any accepted connection
// makes.
type widestWriteListener struct {
	net.Listener
	widest *atomic.Int64
}

func (l widestWriteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return widestWriteConn{c, l.widest}, err
}

type widestWriteConn struct {
	net.Conn
	widest *atomic.Int64
}

func (c widestWriteConn) Write(p []byte) (int, error) {
	for n := c.widest.Load(); int64(len(p)) > n && !c.widest.CompareAndSwap(n, int64(len(p))); n = c.widest.Load() {
	}
	return c.Conn.Write(p)
}

func TestAuthorityBoundsHeldReplies(t *testing.T) {
	// A hostile peer sends a burst of cheap requests with large replies in
	// one segment: feip-public is a few bytes and its (cached) reply is η
	// group elements. The authority may hold replies while requests are
	// buffered, but never more than connReadBuffer bytes of them plus the
	// reply that crossed the bound.
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewAuthorityServer(auth, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var widest atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, widestWriteListener{l, &widest}) }()
	t.Cleanup(func() { cancel(); <-done })

	bc := dialFrames(t, l.Addr().String())
	const eta, requests = 2048, 64
	var burst []byte
	for id := uint64(1); id <= requests; id++ {
		burst = append(burst, binFrame(t, bfFEIPPublic, id, func(b []byte) ([]byte, error) { return appendU32(b, eta) })...)
	}
	if _, err := bc.conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	_ = bc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply := 0
	for id := uint64(1); id <= requests; id++ {
		reply = binHeaderLen + len(expectFrame(t, bc, bfPublicKey, id))
	}
	if requests*reply < 4*(connReadBuffer+reply) {
		t.Fatalf("%d-byte replies are too small for the burst to test the bound", reply)
	}
	if got, limit := widest.Load(), int64(connReadBuffer+reply); got > limit {
		t.Fatalf("the authority wrote %d bytes at once, holding more than %d (bound %d + one %d-byte reply)", got, limit, connReadBuffer, reply)
	}
}
