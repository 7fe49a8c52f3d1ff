package wire

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/big"
	"net"
	"slices"
	"sync/atomic"

	"cryptonn/internal/authority"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
)

// DefaultMaxEta bounds the FEIP dimension (and batch lengths) a server
// accepts from the network. FEIPPublic allocates and exponentiates η group
// elements, so an unchecked client-supplied η is an allocation DoS; the
// default admits any realistic layer width while bounding a hostile peer
// to ~megabyte-scale work. It caps the FEIP dimension η, per-request
// vector lengths and batch element counts on every AuthorityServer.
const DefaultMaxEta = 1 << 20

// ErrLimitExceeded reports a request whose dimension or batch size exceeds
// the server's cap, DefaultMaxEta. It is permanent, not backpressure:
// clients must not retry.
var ErrLimitExceeded = errors.New("wire: request exceeds server limits")

// AuthorityServerOptions is empty: it survives only because NewNodeServer's
// signature is frozen by the benchmark harness.
type AuthorityServerOptions struct{}

// AuthorityServerStats counts server-side incidents.
type AuthorityServerStats struct {
	// Served is the number of well-formed requests dispatched to the key
	// services (everything that decoded within limits, whatever its
	// outcome).
	Served uint64
	// Panics is the number of request dispatches that panicked and were
	// recovered (the connection survived and got an error response).
	Panics uint64
	// Rejected is the number of requests refused by the DefaultMaxEta guard.
	Rejected uint64
	// HandshakeRejected is the number of connections closed because they
	// did not open with a valid hello.
	HandshakeRejected uint64
}

// publicKeySource is what single authorities and cluster nodes share: the
// (joint) public keys are whole on both.
type publicKeySource interface {
	Params() *group.Params
	FEIPPublic(eta int) (*feip.MasterPublicKey, error)
	FEBOPublic() (*febo.PublicKey, error)
}

// AuthorityServer exposes an authority's key services over TCP. It is the
// network face of the trusted third party in Fig. 1 — or, in node mode, of
// one member of the threshold authority cluster, serving partial keys that
// only a T-quorum can combine.
type AuthorityServer struct {
	connServer
	pub  publicKeySource
	auth *authority.Authority // single-authority mode
	node *authority.Node      // cluster-node mode
	lim  keyLimits            // DefaultMaxEta; tests lower it

	served   atomic.Uint64
	rejected atomic.Uint64
}

// NewAuthorityServer wraps an authority; logger may be nil for silence.
func NewAuthorityServer(auth *authority.Authority, logger *log.Logger) (*AuthorityServer, error) {
	if auth == nil {
		return nil, errors.New("wire: nil authority")
	}
	return newServer(&AuthorityServer{pub: auth, auth: auth}, logger), nil
}

// NewNodeServer exposes one threshold cluster node over the same protocol:
// public-key kinds answer with the cluster's joint keys, and the partial-key
// kinds serve this node's shares. Logger may be nil for silence.
func NewNodeServer(node *authority.Node, logger *log.Logger, _ AuthorityServerOptions) (*AuthorityServer, error) {
	if node == nil {
		return nil, errors.New("wire: nil cluster node")
	}
	return newServer(&AuthorityServer{pub: node, node: node}, logger), nil
}

func newServer(s *AuthorityServer, logger *log.Logger) *AuthorityServer {
	s.init("authority", logger)
	s.lim = limitsFor(s.pub.Params(), DefaultMaxEta)
	return s
}

// Stats returns a snapshot of server incident counters.
func (s *AuthorityServer) Stats() AuthorityServerStats {
	return AuthorityServerStats{
		Served:            s.served.Load(),
		Panics:            s.panics.Load(),
		Rejected:          s.rejected.Load(),
		HandshakeRejected: s.badHellos.Load(),
	}
}

// Serve accepts connections on l until the context is cancelled or Close
// is called, answering key requests sequentially per connection. It always
// returns a non-nil error (net.ErrClosed after a clean shutdown).
func (s *AuthorityServer) Serve(ctx context.Context, l net.Listener) error {
	return s.serve(ctx, l, func(bc *binConn) {
		s.frames(bc, func(ftype byte, id uint64, body []byte) (bool, error) {
			rtype, fill, err := s.safeDispatch(ftype, body)
			if err != nil {
				return false, bc.writeErr(id, err.Error(), false)
			}
			return false, bc.writeFrame(rtype, id, fill)
		})
	})
}

// safeDispatch answers one request frame behind the panic barrier: a
// panicking request (malformed input reaching an arithmetic edge, a bug in
// a key path) downs neither the connection nor the server — the client
// gets a non-retryable "internal error" frame and the incident is counted
// and logged. Malformed and over-limit frames are refused by their decoder
// before anything is allocated or derived on their behalf.
func (s *AuthorityServer) safeDispatch(ftype byte, body []byte) (rtype byte, fill fillFunc, err error) {
	err = s.barrier("serving "+frameName(ftype), func() (err error) {
		rtype, fill, err = s.dispatch(ftype, body)
		switch {
		case errors.Is(err, ErrLimitExceeded):
			s.rejected.Add(1)
		case !errors.Is(err, ErrBinaryEncoding):
			s.served.Add(1)
		}
		return err
	})
	return rtype, fill, err
}

func (s *AuthorityServer) dispatch(ftype byte, body []byte) (byte, fillFunc, error) {
	switch ftype {
	case bfFEIPPublic:
		eta, err := decodeDim(body, s.lim)
		if err != nil {
			return 0, nil, err
		}
		mpk, err := s.pub.FEIPPublic(eta)
		if err != nil {
			return 0, nil, err
		}
		hs := mpk.H
		if s.node != nil {
			// A node appends every node's public share vector, H ‖ h^(1) ‖ … ‖
			// h^(N), so the quorum read that authenticates H authenticates
			// them too.
			pubs, err := s.node.FEIPSharePublics(eta)
			if err != nil {
				return 0, nil, err
			}
			hs = slices.Concat(append([][]*big.Int{hs}, pubs...)...)
		}
		return bfPublicKey, func(b []byte) ([]byte, error) { return appendPublicKey(b, s.pub.Params(), hs) }, nil
	case bfFEBOPublic:
		if err := decodeEmpty(body); err != nil {
			return 0, nil, err
		}
		pk, err := s.pub.FEBOPublic()
		if err != nil {
			return 0, nil, err
		}
		return bfPublicKey, func(b []byte) ([]byte, error) { return appendPublicKey(b, s.pub.Params(), []*big.Int{pk.H}) }, nil
	}
	if s.node != nil {
		return s.dispatchNode(ftype, body)
	}
	switch ftype {
	case bfIPKeyBatch:
		ys, err := decodeScalarMatrix(body, s.lim)
		if err != nil {
			return 0, nil, err
		}
		fks, err := s.auth.IPKeyBatch(ys)
		if err != nil {
			return 0, nil, err
		}
		return keysReply(len(fks), func(i int) *big.Int { return fks[i].K })
	case bfIPKeySparse:
		eta, idx, vals, err := decodeSparseKeyRequest(body, s.lim)
		if err != nil {
			return 0, nil, err
		}
		fk, err := s.auth.IPKeySparse(eta, idx, vals)
		if err != nil {
			return 0, nil, err
		}
		return bfKey, func(b []byte) ([]byte, error) { return appendKey(b, fk.K) }, nil
	case bfBOKeyBatch:
		cmts, op, ys, err := decodeBORequest(body, s.lim)
		if err != nil {
			return 0, nil, err
		}
		fks, err := s.auth.BOKeyBatch(cmts, op, ys)
		if err != nil {
			return 0, nil, err
		}
		return keysReply(len(fks), func(i int) *big.Int { return fks[i].K })
	default:
		return 0, nil, fmt.Errorf("wire: authority cannot serve %s", frameName(ftype))
	}
}

// keysReply answers a batch key request with the n keys at(0..n-1) as one
// bfKeyBatch.
func keysReply(n int, at func(int) *big.Int) (byte, fillFunc, error) {
	ks := make([]*big.Int, n)
	for i := range ks {
		ks[i] = at(i)
	}
	return bfKeyBatch, func(b []byte) ([]byte, error) { return appendElems(b, ks) }, nil
}

// dispatchNode answers the non-public kinds in cluster-node mode:
// whole-key kinds are refused — a node structurally cannot derive one —
// and the partial-key kinds serve this node's share arithmetic.
func (s *AuthorityServer) dispatchNode(ftype byte, body []byte) (byte, fillFunc, error) {
	nd := s.node
	reply := func(pk *partialKeys) (byte, fillFunc, error) {
		pk.NodeIndex = nd.Index()
		return bfPartialKeys, func(b []byte) ([]byte, error) { return appendPartialKeys(b, pk) }, nil
	}
	switch ftype {
	case bfClusterInfo:
		if err := decodeEmpty(body); err != nil {
			return 0, nil, err
		}
		pk, err := nd.FEBOPublic()
		if err != nil {
			return 0, nil, err
		}
		p := nd.Params()
		ci := &clusterInfo{
			NodeIndex: nd.Index(),
			Threshold: nd.Threshold(),
			Key:       publicKeyMsg{P: p.P, Q: p.Q, G: p.G, H: append([]*big.Int{pk.H}, nd.FEBOSharePublics()...)},
		}
		return bfCluster, func(b []byte) ([]byte, error) { return appendClusterInfo(b, ci) }, nil
	case bfPartialIPKeyBatch:
		ys, err := decodeScalarMatrix(body, s.lim)
		if err != nil {
			return 0, nil, err
		}
		ks, err := nd.PartialIPKeyBatch(ys)
		if err != nil {
			return 0, nil, err
		}
		return reply(&partialKeys{Ks: ks})
	case bfPartialBOKeyBatch:
		cmts, op, ys, err := decodeBORequest(body, s.lim)
		if err != nil {
			return 0, nil, err
		}
		ks, proof, err := nd.PartialBOKeyBatch(cmts, op, ys)
		if err != nil {
			return 0, nil, err
		}
		return reply(&partialKeys{Ks: ks, Proof: proof})
	case bfIPKeySparse, bfIPKeyBatch, bfBOKeyBatch:
		return 0, nil, fmt.Errorf("wire: cluster node holds only a key share; %s requires a T-quorum", frameName(ftype))
	default:
		return 0, nil, fmt.Errorf("wire: authority node cannot serve %s", frameName(ftype))
	}
}
