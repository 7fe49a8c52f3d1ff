package wire

// Fault-injection net.Conn wrapper for robustness testing, compiled into
// the test binary only (no program reaches it; the exported names serve the
// external wire_test package). The chaos and
// quorum suites wrap real loopback connections in FaultConn to model the
// partial failures a threshold authority cluster must tolerate: slow
// links (delay), silent packet loss (drop), broken framing (truncate) and
// abrupt resets. The wrapper is deadline-aware — a dropped read still
// honours SetReadDeadline — so client-side timeout handling is exercised
// exactly as against a real wedged peer.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// FaultMode selects a failure behaviour for one direction of a FaultConn.
type FaultMode int

const (
	// FaultNone passes traffic through (possibly delayed).
	FaultNone FaultMode = iota
	// FaultDrop swallows the operation: writes report success without
	// sending, reads block until a deadline or close — a wedged peer.
	FaultDrop
	// FaultTruncate lets through only the first byte of each operation,
	// corrupting the length-prefixed framing mid-frame.
	FaultTruncate
	// FaultReset closes the underlying connection, so the peer and any
	// later operation observe a hard failure.
	FaultReset
)

// String names the mode for test logs.
func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultTruncate:
		return "truncate"
	case FaultReset:
		return "reset"
	default:
		return fmt.Sprintf("FaultMode(%d)", int(m))
	}
}

// FaultPlan schedules when a FaultConn starts misbehaving. The zero value
// is a transparent wrapper.
type FaultPlan struct {
	// ReadDelay and WriteDelay are added before every read/write.
	ReadDelay, WriteDelay time.Duration
	// Mode is the failure behaviour once armed.
	Mode FaultMode
	// AfterOps arms Mode after this many successful reads+writes; 0 arms
	// it immediately.
	AfterOps int
}

// FaultConn wraps a net.Conn with scheduled fault injection. It is safe
// for one concurrent reader plus one concurrent writer (the same contract
// as net.Conn).
type FaultConn struct {
	net.Conn
	plan FaultPlan

	mu       sync.Mutex
	ops      int
	armed    bool
	closed   chan struct{}
	deadline chan struct{} // closed and replaced on every deadline change
	rdDead   time.Time
	once     sync.Once
}

// NewFaultConn wraps conn with the given plan.
func NewFaultConn(conn net.Conn, plan FaultPlan) *FaultConn {
	return &FaultConn{
		Conn:     conn,
		plan:     plan,
		closed:   make(chan struct{}),
		deadline: make(chan struct{}),
	}
}

// active reports whether the fault mode applies to the next operation,
// counting this operation if it passes through.
func (c *FaultConn) active() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed && c.ops >= c.plan.AfterOps {
		c.armed = true
	}
	if !c.armed {
		c.ops++
	}
	return c.armed
}

// Read applies the plan to the read direction.
func (c *FaultConn) Read(p []byte) (int, error) {
	if d := c.plan.ReadDelay; d > 0 {
		if err := c.sleep(d); err != nil {
			return 0, err
		}
	}
	if !c.active() || c.plan.Mode == FaultNone {
		return c.Conn.Read(p)
	}
	switch c.plan.Mode {
	case FaultDrop:
		return 0, c.blockUntilDeadline()
	case FaultTruncate:
		if len(p) > 1 {
			p = p[:1]
		}
		n, err := c.Conn.Read(p)
		if err != nil {
			return n, err
		}
		// Swallow the rest of the peer's frame so the truncation is
		// observed as a wedged-then-dead stream, not reordered bytes.
		return n, nil
	case FaultReset:
		_ = c.Conn.Close()
		return 0, net.ErrClosed
	default:
		return 0, fmt.Errorf("wire: unknown fault mode %v", c.plan.Mode)
	}
}

// Write applies the plan to the write direction.
func (c *FaultConn) Write(p []byte) (int, error) {
	if d := c.plan.WriteDelay; d > 0 {
		if err := c.sleep(d); err != nil {
			return 0, err
		}
	}
	if !c.active() || c.plan.Mode == FaultNone {
		return c.Conn.Write(p)
	}
	switch c.plan.Mode {
	case FaultDrop:
		return len(p), nil // lie: accepted, never sent
	case FaultTruncate:
		if _, err := c.Conn.Write(p[:1]); err != nil {
			return 0, err
		}
		return len(p), nil
	case FaultReset:
		_ = c.Conn.Close()
		return 0, net.ErrClosed
	default:
		return 0, fmt.Errorf("wire: unknown fault mode %v", c.plan.Mode)
	}
}

// Close releases the wrapper and the wrapped connection, waking any
// fault-blocked operation.
func (c *FaultConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// SetDeadline implements net.Conn; fault-blocked reads honour it.
func (c *FaultConn) SetDeadline(t time.Time) error {
	c.noteReadDeadline(t)
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline implements net.Conn; fault-blocked reads honour it.
func (c *FaultConn) SetReadDeadline(t time.Time) error {
	c.noteReadDeadline(t)
	return c.Conn.SetReadDeadline(t)
}

func (c *FaultConn) noteReadDeadline(t time.Time) {
	c.mu.Lock()
	c.rdDead = t
	old := c.deadline
	c.deadline = make(chan struct{})
	c.mu.Unlock()
	close(old) // wake blocked reads so they re-arm on the new deadline
}

// sleep waits for the injected latency, aborting early on close.
func (c *FaultConn) sleep(d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.closed:
		return net.ErrClosed
	}
}

// blockUntilDeadline emulates a peer that never answers: it blocks until
// the connection is closed or the current read deadline expires,
// re-arming whenever the deadline changes.
func (c *FaultConn) blockUntilDeadline() error {
	for {
		c.mu.Lock()
		dead := c.rdDead
		change := c.deadline
		c.mu.Unlock()

		var expire <-chan time.Time
		var timer *time.Timer
		if !dead.IsZero() {
			d := time.Until(dead)
			if d <= 0 {
				return timeoutError{}
			}
			timer = time.NewTimer(d)
			expire = timer.C
		}
		select {
		case <-c.closed:
			if timer != nil {
				timer.Stop()
			}
			return net.ErrClosed
		case <-expire:
			return timeoutError{}
		case <-change:
			// Deadline moved; recompute.
			if timer != nil {
				timer.Stop()
			}
		}
	}
}

// timeoutError matches net.Error timeout semantics for injected stalls.
type timeoutError struct{}

func (timeoutError) Error() string   { return "wire: injected fault: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// IsTimeout reports whether err represents a timeout (real or injected).
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// FaultDialer wraps a dial function so every connection it produces is
// fault-injected with the same plan; used to aim faults at a specific
// quorum node.
func FaultDialer(dial func() (net.Conn, error), plan FaultPlan) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return NewFaultConn(conn, plan), nil
	}
}

var _ io.ReadWriteCloser = (*FaultConn)(nil)
