package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/group"
	"cryptonn/internal/wire"
)

// server is something that serves a listener until its context ends.
type server interface {
	Serve(ctx context.Context, l net.Listener) error
}

// running is one served loopback listener; stop cancels it and waits for
// Serve (and with it every connection handler) to return.
type running struct {
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func serveLoopback(s server) (*running, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &running{addr: l.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- s.Serve(ctx, l) }()
	return r, nil
}

func (r *running) stop() {
	r.cancel()
	<-r.done
}

// keyPlane is the authority side of a deployment: one wire.AuthorityServer
// (or, for the quorum workload, one node server per cluster member) on real
// loopback TCP, at the paper's 256-bit group. Every socket dialed through it
// adds to bytes.
type keyPlane struct {
	params  *group.Params
	auth    *authority.Authority // single authority
	nodes   []*authority.Node    // threshold cluster
	servers []*wire.AuthorityServer
	live    []*running
	bytes   byteCounter
}

// newParams returns a fresh copy of the embedded 256-bit group, so every
// table the library caches per *Params starts cold.
func newParams() (*group.Params, error) { return group.Embedded(group.PaperBits) }

func startAuthority() (*keyPlane, error) {
	params, err := newParams()
	if err != nil {
		return nil, err
	}
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		return nil, err
	}
	srv, err := wire.NewAuthorityServer(auth, nil)
	if err != nil {
		return nil, err
	}
	kp := &keyPlane{params: params, auth: auth}
	return kp, kp.serve(srv)
}

// startCluster deals a t-of-n threshold authority and serves every node.
func startCluster(t, n int) (*keyPlane, error) {
	params, err := newParams()
	if err != nil {
		return nil, err
	}
	_, nodes, err := authority.NewCluster(params, authority.AllowAll(), t, n, nil)
	if err != nil {
		return nil, err
	}
	kp := &keyPlane{params: params, nodes: nodes}
	for _, nd := range nodes {
		srv, err := wire.NewNodeServer(nd, nil, wire.AuthorityServerOptions{})
		if err != nil {
			kp.stop()
			return nil, err
		}
		if err := kp.serve(srv); err != nil {
			kp.stop()
			return nil, err
		}
	}
	return kp, nil
}

func (kp *keyPlane) serve(srv *wire.AuthorityServer) error {
	r, err := serveLoopback(srv)
	if err != nil {
		return err
	}
	kp.servers = append(kp.servers, srv)
	kp.live = append(kp.live, r)
	return nil
}

// dial opens a counted key-service connection to the single authority.
func (kp *keyPlane) dial() (*wire.RemoteKeyService, error) {
	conn, err := dialCounted(kp.live[0].addr, &kp.bytes)
	if err != nil {
		return nil, fmt.Errorf("dialing authority: %w", err)
	}
	return wire.NewRemoteKeyService(conn), nil
}

// quorumHedgeDelay replaces the quorum client's 25 ms default. On a box
// that stalls for tens of milliseconds at a time the default fires on
// healthy primaries, and every hedge makes standby nodes derive and ship
// the same keys again: bytes per bundle and node work would depend on
// timing. The benchmark measures the un-hedged path; wire.quorum_hedges
// reports any hedge that still happens.
const quorumHedgeDelay = time.Second

// dialQuorum builds the combining client over counted node dialers.
func (kp *keyPlane) dialQuorum() (*wire.QuorumKeyService, error) {
	dials := make([]func() (net.Conn, error), len(kp.live))
	for i, r := range kp.live {
		addr := r.addr
		dials[i] = func() (net.Conn, error) { return dialCounted(addr, &kp.bytes) }
	}
	return wire.NewQuorumKeyService(dials, wire.QuorumOptions{HedgeDelay: quorumHedgeDelay})
}

// issued sums the key-issuance counters of the authority, or of every node.
func (kp *keyPlane) issued() authority.Stats {
	if kp.auth != nil {
		return kp.auth.Stats()
	}
	var sum authority.Stats
	for _, nd := range kp.nodes {
		st := nd.Stats()
		sum.IPKeys += st.IPKeys
		sum.IPKeyScalars += st.IPKeyScalars
		sum.BOKeys += st.BOKeys
	}
	return sum
}

// keyPlaneMark is a reading of the single authority's issuance counters and
// of the traffic on one key connection to it.
type keyPlaneMark struct {
	issued authority.Stats
	trips  uint64
	bytes  int64
}

func (kp *keyPlane) mark(ks *wire.RemoteKeyService) keyPlaneMark {
	return keyPlaneMark{issued: kp.issued(), trips: ks.RoundTrips(), bytes: kp.bytes.total()}
}

// keyPlanePerOp reports what the key plane did between two marks, per op:
// the exact key and round-trip counts and the bytes on its sockets.
func (r *result) keyPlanePerOp(from, to keyPlaneMark, ops float64) {
	r.set("authority.ip_keys_per_op", float64(to.issued.IPKeys-from.issued.IPKeys)/ops, "count")
	r.set("authority.bo_keys_per_op", float64(to.issued.BOKeys-from.issued.BOKeys)/ops, "count")
	r.set("authority.ip_scalars_per_op", float64(to.issued.IPKeyScalars-from.issued.IPKeyScalars)/ops, "count")
	r.set("wire.key_roundtrips_per_op", float64(to.trips-from.trips)/ops, "count")
	r.set("wire.key_kb_per_op", float64(to.bytes-from.bytes)/1000/ops, "kB")
}

func (kp *keyPlane) stop() {
	for _, r := range kp.live {
		r.stop()
	}
	kp.live = nil
}
