package wire

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// connServer is the listener plumbing the authority, training and
// prediction servers share: accept, demand the version hello, track live
// connections, run the one frame read loop, contain panics, close
// everything on shutdown.
type connServer struct {
	name string // log prefix, e.g. "authority"
	log  *log.Logger
	// badHellos counts connections closed because their first 8 bytes were
	// not a valid hello.
	badHellos atomic.Uint64
	// panics counts panics the barrier recovered.
	panics atomic.Uint64

	connMu   sync.Mutex // guards listener, conns, closed
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

func (s *connServer) init(name string, logger *log.Logger) {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s.name, s.log, s.conns = name, logger, make(map[net.Conn]struct{})
}

// serve accepts connections on l until the context is cancelled or Close
// is called, running handle on each connection that completes the
// handshake. It always returns a non-nil error (net.ErrClosed after a
// clean shutdown), after every connection goroutine has finished.
func (s *connServer) serve(ctx context.Context, l net.Listener, handle func(*binConn)) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return net.ErrClosed
	}
	s.listener = l
	s.connMu.Unlock()

	stop := context.AfterFunc(ctx, func() { _ = s.Close() })
	defer stop()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.wg.Wait()
			return err
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			closeLogged(conn, s.log)
			s.wg.Wait()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				closeLogged(conn, s.log)
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
			}()
			if err := acceptHello(conn); err != nil {
				// Anything but a hello: close without reading further.
				if errors.Is(err, errBadHello) {
					s.badHellos.Add(1)
				}
				s.logIO("handshake with", conn, err)
				return
			}
			bc := newBinConn(conn)
			handle(bc)
			// Every frame queued on the connection goes out before it
			// closes, including one riding another writer's Write. Its
			// error changes nothing: the connection closes either way.
			_ = bc.flush()
		}()
	}
}

// Close stops accepting and closes every live connection.
func (s *connServer) Close() error {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		closeLogged(c, s.log)
	}
	return err
}

// frames is the server read loop: it hands every frame to handle until the
// peer disconnects, a response cannot be written, or handle reports the
// conversation finished. The body is only valid during the call. Replies
// handle holds (holdFrame) wait while the next request has already
// arrived whole, up to connReadBuffer bytes of them, and are written before
// any read that could block, so a burst of requests is answered with one
// Write.
func (s *connServer) frames(bc *binConn, handle func(ftype byte, id uint64, body []byte) (done bool, werr error)) {
	for {
		if !bc.frameBuffered() {
			if err := bc.commitHeld(); err != nil {
				s.logIO("write to", bc.conn, err)
				return
			}
		}
		ftype, id, body, err := bc.readFrame()
		if err != nil {
			s.logIO("read from", bc.conn, err)
			return
		}
		done, werr := handle(ftype, id, body)
		if werr != nil {
			s.logIO("write to", bc.conn, werr)
			return
		}
		if done {
			return
		}
	}
}

// barrier runs f behind the package's one panic barrier. A panic reachable
// from one peer's bytes (a codec edge, an engine bug) must cost that
// request an error, not the connection or the process: recover, count,
// log with the stack, and return "internal error" — the panic itself stays
// in the server log.
func (s *connServer) barrier(what string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.log.Printf("%s: panic %s: %v\n%s", s.name, what, r, debug.Stack())
			err = errors.New("internal error")
		}
	}()
	return f()
}

// logIO logs a connection-level failure, staying quiet about the ordinary
// ways a conversation ends.
func (s *connServer) logIO(verb string, conn net.Conn, err error) {
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		s.log.Printf("%s: %s %s: %v", s.name, verb, conn.RemoteAddr(), err)
	}
}

func closeLogged(c io.Closer, l *log.Logger) {
	if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		l.Printf("wire: close: %v", err)
	}
}
