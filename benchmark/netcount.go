package main

import (
	"net"
	"sync/atomic"
)

// byteCounter totals the bytes crossing the sockets of one plane. Every
// connection is counted once, on the dialing side, so a byte is never
// counted at both of its ends.
type byteCounter struct{ in, out atomic.Int64 }

func (c *byteCounter) total() int64 { return c.in.Load() + c.out.Load() }

// countingConn is the net.Conn wrapper the benchmark hands to
// wire.NewClientConn, wire.NewRemoteKeyService and the quorum dialers.
type countingConn struct {
	net.Conn
	c *byteCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.out.Add(int64(n))
	return n, err
}

// dialCounted opens a loopback TCP connection whose traffic adds to c.
func dialCounted(addr string, c *byteCounter) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: c}, nil
}
