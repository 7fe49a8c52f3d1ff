package wire

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/big"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
)

// exchangeTimeout bounds every key exchange, with a single authority
// (RemoteKeyService) or with one cluster node (QuorumKeyService, dial
// included): a wedged or partitioned peer surfaces as a timeout error on
// the caller instead of a goroutine stuck for ever.
const exchangeTimeout = 5 * time.Second

// RemoteKeyService is a securemat.KeyService backed by a TCP connection to
// an AuthorityServer. It validates everything it receives (group
// parameters, group elements) and caches public keys, which are immutable
// for the lifetime of an authority.
//
// One connection is all a caller needs, and it is safe for concurrent use:
// requests are multiplexed by id (ClientConn) and the authority answers a
// connection's requests in order. A whole step's keys travel as one batch
// frame (IPKeyBatch, BOKeyBatch); the one key path with several requests in
// flight is securemat.SparseDotKeys, which keeps a window of a support's
// per-row IPKeySparse requests outstanding. Callers normally wrap the service
// in a securemat.Engine, whose session caches (public keys,
// per-weight-matrix function keys) sit above this client and keep repeated
// requests off the wire entirely.
type RemoteKeyService struct {
	cc      *ClientConn
	timeout time.Duration // exchangeTimeout; tests shorten it
	trips   atomic.Uint64

	mu        sync.Mutex
	lim       keyLimits // element width of the authority's group once known
	feipCache map[int]*feip.MasterPublicKey
	feboCache *febo.PublicKey
}

// DialKeyService connects to an authority at addr.
func DialKeyService(addr string) (*RemoteKeyService, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing authority: %w", err)
	}
	return NewRemoteKeyService(conn), nil
}

// DialKeys connects to a single authority or, for a comma-separated list of
// node addresses, to a threshold authority cluster, logging its shape to
// logger. The caller closes the returned service.
func DialKeys(addrs string, logger *log.Logger) (interface {
	securemat.KeyService
	Close() error
}, error) {
	list := strings.Split(addrs, ",")
	for i := range list {
		list[i] = strings.TrimSpace(list[i])
	}
	if len(list) == 1 {
		c, err := DialKeyService(list[0])
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	q, err := DialQuorumKeyService(list, QuorumOptions{Logger: logger})
	if err != nil {
		return nil, err
	}
	t, n := q.Threshold()
	logger.Printf("threshold authority cluster: %d nodes, quorum T=%d", n, t)
	return q, nil
}

// NewRemoteKeyService wraps an established connection. The version
// handshake runs with the first exchange, so a peer that refuses it
// surfaces there. Every exchange is held to exchangeTimeout.
func NewRemoteKeyService(conn net.Conn) *RemoteKeyService {
	return &RemoteKeyService{
		cc:        newClientConn(conn),
		timeout:   exchangeTimeout,
		lim:       anyGroup,
		feipCache: make(map[int]*feip.MasterPublicKey),
	}
}

// Close releases the connection; in-flight exchanges fail.
func (c *RemoteKeyService) Close() error { return c.cc.Close() }

// RoundTrips reports the number of request/response exchanges performed
// (cache hits on public keys do not count). It quantifies what key-request
// batching saves: without it, an n-element element-wise step costs n round
// trips; with it, one.
func (c *RemoteKeyService) RoundTrips() uint64 { return c.trips.Load() }

// exchange performs one request/response exchange under the deadline.
func (c *RemoteKeyService) exchange(ftype, want byte, fill fillFunc) ([]byte, error) {
	c.trips.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	return c.cc.request(ctx, ftype, want, fill)
}

// limits returns what key responses are held to: any count, elements no
// wider than the authority's group once a public key has been validated.
func (c *RemoteKeyService) limits() keyLimits {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lim
}

// publicKey fetches and validates one public-key frame.
func (c *RemoteKeyService) publicKey(ftype byte, fill fillFunc) (*group.Params, []*big.Int, error) {
	body, err := c.exchange(ftype, bfPublicKey, fill)
	if err != nil {
		return nil, nil, err
	}
	m, err := decodePublicKey(body)
	if err != nil {
		return nil, nil, err
	}
	params, err := m.params()
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	c.lim = limitsFor(params, maxBinCount)
	c.mu.Unlock()
	return params, m.H, nil
}

// FEIPPublic implements securemat.KeyService.
func (c *RemoteKeyService) FEIPPublic(eta int) (*feip.MasterPublicKey, error) {
	c.mu.Lock()
	cached, ok := c.feipCache[eta]
	c.mu.Unlock()
	if ok {
		return cached, nil
	}
	params, hs, err := c.publicKey(bfFEIPPublic, func(b []byte) ([]byte, error) { return appendU32(b, eta) })
	if err != nil {
		return nil, err
	}
	mpk := &feip.MasterPublicKey{Params: params, H: hs}
	if err := mpk.Validate(); err != nil {
		return nil, fmt.Errorf("wire: authority sent invalid FEIP key: %w", err)
	}
	if mpk.Eta() != eta {
		return nil, fmt.Errorf("wire: FEIP key has dimension %d, want %d", mpk.Eta(), eta)
	}
	c.mu.Lock()
	c.feipCache[eta] = mpk
	c.mu.Unlock()
	return mpk, nil
}

// FEBOPublic implements securemat.KeyService.
func (c *RemoteKeyService) FEBOPublic() (*febo.PublicKey, error) {
	c.mu.Lock()
	cached := c.feboCache
	c.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	params, hs, err := c.publicKey(bfFEBOPublic, emptyBody)
	if err != nil {
		return nil, err
	}
	if len(hs) != 1 {
		return nil, errors.New("wire: FEBO response must carry exactly one element")
	}
	pk := &febo.PublicKey{Params: params, H: hs[0]}
	if err := pk.Validate(); err != nil {
		return nil, fmt.Errorf("wire: authority sent invalid FEBO key: %w", err)
	}
	c.mu.Lock()
	c.feboCache = pk
	c.mu.Unlock()
	return pk, nil
}

// keyBatch performs a batch exchange expecting want keys.
func (c *RemoteKeyService) keyBatch(ftype byte, want int, fill fillFunc) ([]*big.Int, error) {
	body, err := c.exchange(ftype, bfKeyBatch, fill)
	if err != nil {
		return nil, err
	}
	ks, err := decodeKeyBatch(body, c.limits())
	if err != nil {
		return nil, err
	}
	if len(ks) != want {
		return nil, fmt.Errorf("wire: %d keys for %d requested", len(ks), want)
	}
	return ks, nil
}

// IPKey implements securemat.KeyService as a one-entry IPKeyBatch.
func (c *RemoteKeyService) IPKey(y []int64) (*feip.FunctionKey, error) {
	ks, err := c.IPKeyBatch([][]int64{y})
	if err != nil {
		return nil, err
	}
	return ks[0], nil
}

// IPKeySparse implements securemat.SparseKeyService: it requests the key
// for an η-dimensional vector given in coordinate form, shipping only the
// support instead of η scalars. The frame carries the support and the
// values on it in cleartext (docs/SPARSE.md, "What sparsity leaks").
func (c *RemoteKeyService) IPKeySparse(eta int, idx []int, vals []int64) (*feip.FunctionKey, error) {
	body, err := c.exchange(bfIPKeySparse, bfKey, func(b []byte) ([]byte, error) { return appendSparseKeyRequest(b, eta, idx, vals) })
	if err != nil {
		return nil, err
	}
	k, err := decodeKey(body, c.limits())
	if err != nil {
		return nil, err
	}
	return &feip.FunctionKey{K: k}, nil
}

// IPKeyBatch implements securemat.BatchKeyService: it requests the keys
// for every weight vector in one round trip — the whole first-layer key
// traffic of a training iteration (k×n scalars up, k keys down, §IV-B2)
// in a single frame instead of k.
func (c *RemoteKeyService) IPKeyBatch(ys [][]int64) ([]*feip.FunctionKey, error) {
	if len(ys) == 0 {
		return nil, errors.New("wire: empty key batch")
	}
	ks, err := c.keyBatch(bfIPKeyBatch, len(ys), func(b []byte) ([]byte, error) { return appendScalarMatrix(b, ys) })
	if err != nil {
		return nil, err
	}
	keys := make([]*feip.FunctionKey, len(ks))
	for i, k := range ks {
		keys[i] = &feip.FunctionKey{K: k}
	}
	return keys, nil
}

// BOKey implements securemat.KeyService as a one-entry BOKeyBatch.
func (c *RemoteKeyService) BOKey(cmt *big.Int, op febo.Op, y int64) (*febo.FunctionKey, error) {
	ks, err := c.BOKeyBatch([]*big.Int{cmt}, op, []int64{y})
	if err != nil {
		return nil, err
	}
	return ks[0], nil
}

// BOKeyBatch implements securemat.BatchKeyService: one frame for a whole
// matrix of per-commitment FEBO keys — the per-element round trips behind
// the paper's Fig. 3b/4b curves collapse into a single exchange.
func (c *RemoteKeyService) BOKeyBatch(cmts []*big.Int, op febo.Op, ys []int64) ([]*febo.FunctionKey, error) {
	if len(cmts) == 0 || len(cmts) != len(ys) {
		return nil, fmt.Errorf("wire: %d commitments for %d scalars", len(cmts), len(ys))
	}
	ks, err := c.keyBatch(bfBOKeyBatch, len(cmts), func(b []byte) ([]byte, error) { return appendBORequest(b, cmts, op, ys) })
	if err != nil {
		return nil, err
	}
	keys := make([]*febo.FunctionKey, len(ks))
	for i, k := range ks {
		keys[i] = &febo.FunctionKey{K: k}
	}
	return keys, nil
}

// Interface compliance checks.
var (
	_ securemat.KeyService       = (*RemoteKeyService)(nil)
	_ securemat.BatchKeyService  = (*RemoteKeyService)(nil)
	_ securemat.SparseKeyService = (*RemoteKeyService)(nil)
)
