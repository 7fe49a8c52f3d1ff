package wire

// QuorumKeyService: the client side of the threshold authority cluster.
// It implements securemat.KeyService / BatchKeyService against N node
// servers (NewNodeServer), any T of which suffice:
//
//   - requests fan out to every node concurrently with per-node I/O
//     deadlines; the first T valid partial answers win,
//   - stragglers and failed nodes are retried with jittered exponential
//     backoff up to a per-request attempt budget,
//   - every partial is checked against its own node before it counts:
//     admit, verify per node, combine the first T. FEBO partials carry
//     batched Chaum–Pedersen DLEQ proofs checked against the node's share
//     commitment A_j (the combined FEBO key cannot be checked against the
//     joint public key — that would be a DDH instance). FEIP partials are
//     scalars, so the first T are checked together, with one random-
//     linear-combination identity per request against the joint key
//     (g^{Σ λ_j·f_j} == Π h_i^{r_i}); only when it fails is each partial
//     checked on its own against its node's public share vector
//     (g^{f_j} == Π (h^(j)_i)^{r_i}). A node whose partial fails is
//     dropped, counted (BadPartials), logged by share index and replaced
//     by a standby,
//   - the cluster configuration at bootstrap, and each dimension's joint
//     FEIP key together with every node's public share vector, are quorum
//     reads: accepted only once T nodes serve them identically, so a
//     minority of compromised nodes cannot hand the client an
//     attacker-generated key to encrypt under or a forged vector to blame
//     an honest node with.
//
// The service never sees a master secret and no single node can produce a
// whole function key: compromise of up to T−1 nodes reveals nothing, and
// failure of up to N−T nodes costs only retries.

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math/big"
	mrand "math/rand/v2"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
	"cryptonn/internal/thresh"
)

// ErrQuorum reports that fewer than T nodes produced valid partial keys
// within the attempt budget.
var ErrQuorum = errors.New("wire: quorum not reached")

// QuorumOptions tune the quorum client's failure handling. The zero value
// gets conservative defaults.
type QuorumOptions struct {
	// Timeout bounds each per-node request/response exchange (including
	// dial). Default 5s.
	Timeout time.Duration
	// RetryBase is the first backoff step; it doubles per attempt with
	// ±50% jitter. Default 50ms.
	RetryBase time.Duration
	// RetryMax caps the backoff step. Default 2s.
	RetryMax time.Duration
	// MaxAttempts bounds exchanges per node per request. Default 3.
	MaxAttempts int
	// HedgeDelay is how long a request waits on its T primary nodes before
	// hedging to the standby nodes. Failed primaries escalate immediately;
	// the delay only gates hedging against merely-slow ones. Contacting
	// exactly T nodes on the happy path keeps quorum overhead near T× a
	// single authority instead of N×. Default 1s, the one value a caller has
	// measured: at 25ms a healthy 3-of-5 loopback cluster fired 8 hedges in
	// 7s of key bundles whenever a primary was merely descheduled, which
	// made traffic per request depend on timing (benchmark/deploy.go).
	HedgeDelay time.Duration
	// Logger receives per-node failure notes; nil for silence.
	Logger *log.Logger
}

func (o QuorumOptions) withDefaults() QuorumOptions {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.HedgeDelay <= 0 {
		o.HedgeDelay = time.Second
	}
	if o.Logger == nil {
		o.Logger = log.New(io.Discard, "", 0)
	}
	return o
}

// quorumNode is one cluster member: its dial function and the persistent
// connection, redialed on failure. The mutex serializes exchanges on the
// connection; concurrent requests to the same node queue here, so a
// request never lands on a connection another request is about to find
// dead.
type quorumNode struct {
	dial func() (net.Conn, error)

	mu sync.Mutex
	cc *ClientConn
	// suspect records that this node's last exchange failed; requests
	// prefer non-suspect nodes as primaries.
	suspect atomic.Bool
}

// exchange performs one deadline-bounded request/response with the node,
// dialing if necessary: the pre-encoded body gets a header stamped for
// this connection. Any transport error tears the connection down so the
// next attempt redials; a refusalError does not.
func (nd *quorumNode) exchange(ctx context.Context, ftype, want byte, body []byte, timeout time.Duration) ([]byte, error) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if nd.cc == nil {
		conn, err := nd.dial()
		if err != nil {
			return nil, err
		}
		nd.cc = newClientConn(conn)
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	reply, err := nd.cc.request(ctx, ftype, want, rawBody(body))
	var refusal *refusalError
	if err != nil && !errors.As(err, &refusal) {
		nd.closeLocked()
	}
	return reply, err
}

func (nd *quorumNode) closeLocked() {
	if nd.cc != nil {
		_ = nd.cc.Close()
		nd.cc = nil
	}
}

func (nd *quorumNode) close() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.closeLocked()
}

// QuorumKeyService is a fault-tolerant securemat key service backed by an
// N-of-T authority cluster. Safe for concurrent use.
type QuorumKeyService struct {
	nodes []*quorumNode
	t, n  int
	opts  QuorumOptions

	params    *group.Params
	lim       keyLimits // what node responses are held to (width of P)
	feboPK    *febo.PublicKey
	pubShares []*big.Int // A_j = g^{s^(j)}, DLEQ verification keys

	ctx    context.Context
	cancel context.CancelFunc
	trips  atomic.Uint64
	// Fan-out health counters (see QuorumStats).
	escalations atomic.Uint64
	hedges      atomic.Uint64
	suspicions  atomic.Uint64
	badPartials atomic.Uint64

	mu        sync.Mutex
	feipCache map[int]*feipPublics
}

// DialQuorumKeyService connects to a cluster at the given node addresses.
func DialQuorumKeyService(addrs []string, opts QuorumOptions) (*QuorumKeyService, error) {
	o := opts.withDefaults()
	dials := make([]func() (net.Conn, error), len(addrs))
	for i, addr := range addrs {
		addr := addr
		dials[i] = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, o.Timeout) }
	}
	return NewQuorumKeyService(dials, opts)
}

// NewQuorumKeyService builds a quorum client over one dial function per
// cluster node (tests aim fault injection here via FaultDialer). It
// contacts the cluster for its configuration and joint FEBO key and fails
// if no node answers consistently.
func NewQuorumKeyService(dials []func() (net.Conn, error), opts QuorumOptions) (*QuorumKeyService, error) {
	if len(dials) == 0 {
		return nil, errors.New("wire: quorum needs at least one node")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &QuorumKeyService{
		opts:      opts.withDefaults(),
		ctx:       ctx,
		cancel:    cancel,
		feipCache: make(map[int]*feipPublics),
	}
	s.nodes = make([]*quorumNode, len(dials))
	for i, d := range dials {
		s.nodes[i] = &quorumNode{dial: d}
	}
	if err := s.bootstrap(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// bootstrap learns the cluster configuration (T, N, group, joint FEBO key,
// share commitments) from a cluster-info fan-out. This is a quorum
// read: a configuration is accepted only when at least T nodes — its own
// claimed threshold — endorse it identically from distinct share indices.
// Up to T−1 compromised nodes therefore cannot serve clients an
// attacker-generated joint key or forked share commitments; at worst they
// withhold endorsement or equivocate, which fails the bootstrap instead
// of silently poisoning it.
func (s *QuorumKeyService) bootstrap() error {
	type res struct {
		i    int
		info *clusterInfo
		err  error
	}
	ch := make(chan res, len(s.nodes))
	for i, nd := range s.nodes {
		go func(i int, nd *quorumNode) {
			var info *clusterInfo
			body, err := s.tryNode(nd, bfClusterInfo, bfCluster, nil)
			if err == nil {
				info, err = decodeClusterInfo(body)
			}
			if err == nil {
				err = validateClusterInfo(info, len(s.nodes))
			}
			ch <- res{i, info, err}
		}(i, nd)
	}
	// Group valid answers by configuration. Within a group, a share index
	// may vote only once — duplicate indices would let one key vote twice.
	type candidate struct {
		ref     *clusterInfo
		votes   int
		indices map[int64]bool
	}
	var cands []*candidate
	var lastErr error
	for range s.nodes {
		r := <-ch
		if r.err != nil {
			lastErr = r.err
			s.opts.Logger.Printf("quorum: bootstrap node %d: %v", r.i, r.err)
			continue
		}
		matched := false
		for _, c := range cands {
			if sameCluster(c.ref, r.info) == nil {
				if !c.indices[r.info.NodeIndex] {
					c.indices[r.info.NodeIndex] = true
					c.votes++
				}
				matched = true
				break
			}
		}
		if !matched {
			if len(cands) > 0 {
				s.opts.Logger.Printf("quorum: node %d disagrees on cluster configuration: %v", r.i, sameCluster(cands[0].ref, r.info))
			}
			cands = append(cands, &candidate{ref: r.info, votes: 1, indices: map[int64]bool{r.info.NodeIndex: true}})
		}
	}
	var ref *clusterInfo
	for _, c := range cands {
		if c.votes < c.ref.Threshold {
			continue
		}
		if ref != nil {
			return fmt.Errorf("wire: cluster equivocation: two configurations each endorsed by a threshold of nodes")
		}
		ref = c.ref
	}
	if ref == nil {
		return fmt.Errorf("%w: no cluster configuration endorsed by a threshold of nodes (last error: %v)", ErrQuorum, lastErr)
	}
	params, err := ref.Key.params()
	if err != nil {
		return err
	}
	pk := &febo.PublicKey{Params: params, H: ref.joint()}
	if err := pk.Validate(); err != nil {
		return fmt.Errorf("wire: cluster sent invalid FEBO key: %w", err)
	}
	for j, a := range ref.shares() {
		if !params.IsElement(a) {
			return fmt.Errorf("wire: cluster share commitment %d invalid: %w", j+1, group.ErrNotInGroup)
		}
	}
	s.params = params
	s.lim = limitsFor(params, maxBinCount)
	s.feboPK = pk
	s.pubShares = ref.shares()
	s.t = ref.Threshold
	s.n = ref.nodes()
	return nil
}

// validateClusterInfo checks one node's cluster-info answer for internal
// consistency; a failing answer costs that node its vote. (The decoder has
// already proven every element present.)
func validateClusterInfo(ci *clusterInfo, dialed int) error {
	if ci.Threshold < 1 || ci.nodes() < ci.Threshold {
		return fmt.Errorf("wire: invalid cluster shape T=%d N=%d", ci.Threshold, ci.nodes())
	}
	if ci.nodes() != dialed {
		return fmt.Errorf("wire: cluster reports %d nodes, client configured with %d", ci.nodes(), dialed)
	}
	if ci.NodeIndex < 1 || ci.NodeIndex > int64(ci.nodes()) {
		return fmt.Errorf("wire: node claims share index %d of %d", ci.NodeIndex, ci.nodes())
	}
	return nil
}

func sameCluster(a, b *clusterInfo) error {
	if a.Threshold != b.Threshold || a.nodes() != b.nodes() {
		return errors.New("threshold shape differs")
	}
	if a.Key.P.Cmp(b.Key.P) != 0 || a.Key.Q.Cmp(b.Key.Q) != 0 || a.Key.G.Cmp(b.Key.G) != 0 {
		return errors.New("group differs")
	}
	for j := range a.Key.H {
		if a.Key.H[j].Cmp(b.Key.H[j]) != 0 {
			return fmt.Errorf("joint FEBO key or share commitment %d differs", j)
		}
	}
	return nil
}

// Close cancels in-flight exchanges and releases every node connection.
func (s *QuorumKeyService) Close() error {
	s.cancel()
	for _, nd := range s.nodes {
		nd.close()
	}
	return nil
}

// Threshold returns the cluster's (T, N) configuration.
func (s *QuorumKeyService) Threshold() (t, n int) { return s.t, s.n }

// RoundTrips reports the total number of node exchanges performed.
func (s *QuorumKeyService) RoundTrips() uint64 { return s.trips.Load() }

// QuorumStats counts fan-out health incidents. All-zero under healthy
// primaries; non-zero values mean the cluster is absorbing faults.
type QuorumStats struct {
	// RoundTrips is the total number of node exchanges (including
	// retries and hedges).
	RoundTrips uint64
	// Escalations counts standby nodes contacted because a primary
	// failed, refused, or returned an invalid partial.
	Escalations uint64
	// Hedges counts standby nodes contacted because the primaries
	// stalled past HedgeDelay without failing outright.
	Hedges uint64
	// Suspicions counts node exchanges that exhausted their retries and
	// marked the node suspect (steering later primary selection).
	Suspicions uint64
	// SuspectNodes is the number of nodes currently marked suspect.
	SuspectNodes int
	// BadPartials counts partial-key answers that failed their node's own
	// check (a FEIP per-node check or a FEBO DLEQ proof) and were dropped.
	BadPartials uint64
}

// Stats snapshots the fan-out health counters.
func (s *QuorumKeyService) Stats() QuorumStats {
	st := QuorumStats{
		RoundTrips:  s.trips.Load(),
		Escalations: s.escalations.Load(),
		Hedges:      s.hedges.Load(),
		Suspicions:  s.suspicions.Load(),
		BadPartials: s.badPartials.Load(),
	}
	for _, nd := range s.nodes {
		if nd.suspect.Load() {
			st.SuspectNodes++
		}
	}
	return st
}

// tryNode performs one exchange with retries and jittered exponential
// backoff, returning the body of the wanted response frame. Protocol
// refusals are returned immediately — the node answered; asking again buys
// nothing. Transport errors and timeouts are retried. The node's suspect
// flag tracks the outcome, steering primary selection for later requests.
func (s *QuorumKeyService) tryNode(nd *quorumNode, ftype, want byte, body []byte) ([]byte, error) {
	var err error
	for attempt := 0; attempt < s.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			step := s.opts.RetryBase << (attempt - 1)
			if step > s.opts.RetryMax {
				step = s.opts.RetryMax
			}
			// ±50% jitter decorrelates herd retries across nodes.
			jittered := step/2 + time.Duration(mrand.Int64N(int64(step)))
			select {
			case <-time.After(jittered):
			case <-s.ctx.Done():
				return nil, s.ctx.Err()
			}
		}
		var reply []byte
		s.trips.Add(1)
		reply, err = nd.exchange(s.ctx, ftype, want, body, s.opts.Timeout)
		var refusal *refusalError
		if err == nil || errors.As(err, &refusal) {
			// A refusal is an answer: the node is alive.
			nd.suspect.Store(false)
			return reply, err
		}
		if s.ctx.Err() != nil {
			return nil, s.ctx.Err() // service shutdown, not a node fault
		}
	}
	nd.suspect.Store(true)
	s.suspicions.Add(1)
	return nil, err
}

// partialResult is one node's answer to a fan-out: the body of the wanted
// response frame, or why there is none.
type partialResult struct {
	node int
	body []byte
	err  error
}

// collect runs a hedged fan-out: the request, encoded once into body, goes
// to T primary nodes (the non-suspect ones first), and the remaining nodes
// are contacted only when the answers in flight can no longer complete the
// request (a failed, refused or rejected answer escalates at once) or the
// primaries stall past HedgeDelay. The happy path therefore costs exactly T
// exchanges — T× a single authority, not N× — while wedged or dead
// primaries still cannot stall the request beyond the hedge delay. handle
// is called on every arrival and returns how many more valid answers the
// request lacks; collect keeps at least that many nodes in flight while
// standbys remain, and returns once handle returns 0 or every contacted
// node has answered and no standby remains.
func (s *QuorumKeyService) collect(ftype, want byte, body []byte, handle func(partialResult) int) error {
	ch := make(chan partialResult, len(s.nodes))
	launch := func(i int) {
		go func() {
			reply, err := s.tryNode(s.nodes[i], ftype, want, body)
			ch <- partialResult{node: i, body: reply, err: err}
		}()
	}
	order := make([]int, 0, len(s.nodes))
	for i, nd := range s.nodes {
		if !nd.suspect.Load() {
			order = append(order, i)
		}
	}
	for i, nd := range s.nodes {
		if nd.suspect.Load() {
			order = append(order, i)
		}
	}
	next := min(s.t, len(order))
	for _, i := range order[:next] {
		launch(i)
	}
	outstanding := next
	hedge := time.NewTimer(s.opts.HedgeDelay)
	defer hedge.Stop()
	for outstanding > 0 {
		select {
		case r := <-ch:
			outstanding--
			missing := handle(r)
			if missing <= 0 {
				return nil
			}
			for ; outstanding < missing && next < len(order); next++ {
				s.escalations.Add(1)
				launch(order[next])
				outstanding++
			}
		case <-hedge.C:
			// Primaries are slow but not (yet) failed: hedge to everyone.
			for ; next < len(order); next++ {
				s.hedges.Add(1)
				launch(order[next])
				outstanding++
			}
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
	return nil
}

// feipPublics is one dimension's FEIP public material as T nodes confirmed
// it: the joint key clients encrypt under, and every node's public share
// vector, which checks that node's partials on their own.
type feipPublics struct {
	mpk *feip.MasterPublicKey
	// shares[j-1][i] = h^(j)_i = g^{s^(j)_i}.
	shares [][]*big.Int
}

// FEIPPublic implements securemat.KeyService: the joint master public key
// for dimension eta.
func (s *QuorumKeyService) FEIPPublic(eta int) (*feip.MasterPublicKey, error) {
	pub, err := s.feipPublicsFor(eta)
	if err != nil {
		return nil, err
	}
	return pub.mpk, nil
}

// feipPublicsFor fetches dimension eta's joint key and public share vectors.
// Like bootstrap, this is a quorum read: each node answers
// H ‖ h^(1) ‖ … ‖ h^(N), and the answer is cached only after T nodes served
// it byte-identically, so up to T−1 compromised nodes can neither swap in
// an attacker-generated key whose secret they hold nor forge the vector an
// honest node's partials are checked against. Disagreement widens the
// fan-out so the honest majority still answers; an equivocating cluster
// can only fail the request, never poison the cache. Membership of the
// (N+1)·η elements is checked once, on the endorsed answer.
func (s *QuorumKeyService) feipPublicsFor(eta int) (*feipPublics, error) {
	s.mu.Lock()
	cached, ok := s.feipCache[eta]
	s.mu.Unlock()
	if ok {
		return cached, nil
	}
	var got []*big.Int
	votes := make(map[string]int)
	best := 0
	var lastErr error
	body, err := appendU32(nil, eta)
	if err != nil {
		return nil, err
	}
	err = s.collect(bfFEIPPublic, bfPublicKey, body, func(r partialResult) int {
		if r.err != nil {
			lastErr = r.err
			return s.t - best
		}
		m, err := decodePublicKey(r.body)
		if err == nil && len(m.H) != (s.n+1)*eta {
			err = fmt.Errorf("wire: FEIP public answer holds %d elements, want (N+1)·η = %d", len(m.H), (s.n+1)*eta)
		}
		if err != nil {
			lastErr = err
			s.opts.Logger.Printf("quorum: node %d: %v", r.node, err)
			return s.t - best
		}
		fp := elementsFingerprint(m.H)
		votes[fp]++
		best = max(best, votes[fp])
		if votes[fp] >= s.t {
			got = m.H
			return 0
		}
		if len(votes) > 1 {
			lastErr = errors.New("wire: nodes disagree on the joint FEIP public key or its share vectors")
			s.opts.Logger.Printf("quorum: %v", lastErr)
		}
		return s.t - best
	})
	if err != nil {
		return nil, err
	}
	if got == nil {
		return nil, fmt.Errorf("%w: η=%d public key not confirmed by %d nodes (last error: %v)", ErrQuorum, eta, s.t, lastErr)
	}
	if err := (&feip.MasterPublicKey{Params: s.params, H: got}).Validate(); err != nil {
		return nil, fmt.Errorf("wire: cluster endorsed an invalid FEIP key: %w", err)
	}
	pub := &feipPublics{mpk: &feip.MasterPublicKey{Params: s.params, H: got[:eta:eta]}, shares: make([][]*big.Int, s.n)}
	for j := range pub.shares {
		pub.shares[j] = got[(j+1)*eta : (j+2)*eta : (j+2)*eta]
	}
	s.mu.Lock()
	s.feipCache[eta] = pub
	s.mu.Unlock()
	return pub, nil
}

// FEBOPublic implements securemat.KeyService; the joint key was verified
// at bootstrap.
func (s *QuorumKeyService) FEBOPublic() (*febo.PublicKey, error) {
	return s.feboPK, nil
}

// IPKey implements securemat.KeyService.
func (s *QuorumKeyService) IPKey(y []int64) (*feip.FunctionKey, error) {
	ks, err := s.IPKeyBatch([][]int64{y})
	if err != nil {
		return nil, err
	}
	return ks[0], nil
}

// ipPartial is one node's admitted partial IP key batch, folded under the
// request's random coefficients: folded = Σ_v e_v·ks[v] mod Q.
type ipPartial struct {
	node   int
	index  int64
	ks     []*big.Int
	folded *big.Int
}

// IPKeyBatch implements securemat.BatchKeyService. With fresh random e_v
// and r_i = Σ_v e_v·y_{v,i}, the first T partials are checked together,
// g^{Σ_j λ_j·f_j} = Π_i h_i^{r_i}, and Lagrange-combined. Only when that
// check fails is each collected partial checked on its own against its
// node's public share vector, g^{f_j} = Π_i (h^(j)_i)^{r_i}: a node that
// fails is dropped, counted and replaced by a standby, and every partial
// that arrives later in the request must pass its own check before it is
// admitted.
func (s *QuorumKeyService) IPKeyBatch(ys [][]int64) ([]*feip.FunctionKey, error) {
	if len(ys) == 0 {
		return nil, errors.New("wire: empty key batch")
	}
	eta := len(ys[0])
	for v, y := range ys {
		if len(y) != eta {
			return nil, fmt.Errorf("wire: batch vector %d has η=%d, want %d", v, len(y), eta)
		}
	}
	pub, err := s.feipPublicsFor(eta)
	if err != nil {
		return nil, err
	}
	coeffs, err := verifierCoeffs(len(ys))
	if err != nil {
		return nil, err
	}
	// r_i = Σ_v e_v·y_{v,i}, the exponents of every check in this request.
	rs := make([]*big.Int, eta)
	for i := range rs {
		acc := new(big.Int)
		var term big.Int
		for v, y := range ys {
			term.SetInt64(y[i])
			term.Mul(&term, coeffs[v])
			acc.Add(acc, &term)
		}
		rs[i] = s.params.ReduceScalar(acc)
	}

	var (
		partials []*ipPartial // admitted, with distinct share indices
		perNode  bool         // the joint check failed: check each partial on its own
		keys     []*feip.FunctionKey
		keysErr  error
		lastErr  error
	)
	honest := func(p *ipPartial) bool {
		if s.rlcHolds(pub.shares[p.index-1], rs, p.folded) {
			return true
		}
		s.badPartials.Add(1)
		lastErr = fmt.Errorf("wire: node %d (share index %d) sent partial IP keys that fail its own check", p.node, p.index)
		s.opts.Logger.Printf("quorum: %v", lastErr)
		return false
	}
	checkEach := func() {
		perNode = true
		partials = slices.DeleteFunc(partials, func(p *ipPartial) bool { return !honest(p) })
	}
	body, err := appendScalarMatrix(nil, ys)
	if err != nil {
		return nil, err
	}
	err = s.collect(bfPartialIPKeyBatch, bfPartialKeys, body, func(r partialResult) int {
		if r.err != nil {
			lastErr = r.err
			s.opts.Logger.Printf("quorum: partial IP keys from node %d: %v", r.node, r.err)
			return s.t - len(partials)
		}
		p, err := s.admitIPPartial(r, len(ys), coeffs)
		if err != nil {
			lastErr = err
			s.opts.Logger.Printf("quorum: node %d partial rejected: %v", r.node, err)
			return s.t - len(partials)
		}
		held := func() bool {
			return slices.ContainsFunc(partials, func(q *ipPartial) bool { return q.index == p.index })
		}
		if !perNode && held() {
			checkEach() // two answers claim one share index: one of them lies
		}
		if perNode && !honest(p) {
			return s.t - len(partials)
		}
		if held() {
			lastErr = fmt.Errorf("wire: node %d claims share index %d, already held", r.node, p.index)
			return s.t - len(partials)
		}
		partials = append(partials, p)
		if len(partials) < s.t {
			return s.t - len(partials)
		}
		quorum := partials[:s.t]
		xs := make([]int64, s.t)
		folded := make([]*big.Int, s.t)
		for j, q := range quorum {
			xs[j], folded[j] = q.index, q.folded
		}
		lambdas, err := thresh.Lambda(s.params, xs)
		if err != nil {
			keysErr = err
			return 0
		}
		if !perNode && !s.rlcHolds(pub.mpk.H, rs, thresh.CombineScalars(s.params, lambdas, folded)) {
			checkEach()
			if len(partials) == s.t {
				keysErr = errors.New("wire: every partial passes its own check but their combination fails the joint one: the cluster's share vectors do not match its joint key")
				return 0
			}
			return s.t - len(partials)
		}
		keys = make([]*feip.FunctionKey, len(ys))
		vals := make([]*big.Int, s.t)
		for v := range keys {
			for j, q := range quorum {
				vals[j] = q.ks[v]
			}
			keys[v] = &feip.FunctionKey{K: thresh.CombineScalars(s.params, lambdas, vals)}
		}
		return 0
	})
	if err != nil {
		return nil, err
	}
	if keysErr != nil {
		return nil, keysErr
	}
	if keys == nil {
		return nil, fmt.Errorf("%w: %d/%d valid partial IP answers (last error: %v)", ErrQuorum, len(partials), s.t, lastErr)
	}
	return keys, nil
}

// rlcHolds checks one random-linear-combination identity,
// g^{lhs} = Π_i bases_i^{rs_i}: over the joint key with the Lagrange-
// combined fold it checks a whole quorum, over node j's public share
// vector with its own fold it checks node j alone.
func (s *QuorumKeyService) rlcHolds(bases, rs []*big.Int, lhs *big.Int) bool {
	return s.params.PowG(lhs).Cmp(s.params.MultiExp(bases, rs)) == 0
}

// admitIPPartial decodes and structurally validates one node's partial
// batch and folds it under the RLC coefficients.
func (s *QuorumKeyService) admitIPPartial(r partialResult, want int, coeffs []*big.Int) (*ipPartial, error) {
	pk, err := decodePartialKeys(r.body, s.lim)
	if err != nil {
		return nil, err
	}
	if pk.NodeIndex < 1 || pk.NodeIndex > int64(s.n) {
		return nil, fmt.Errorf("wire: node claims share index %d", pk.NodeIndex)
	}
	if len(pk.Ks) != want {
		return nil, fmt.Errorf("wire: %d partial keys for %d vectors", len(pk.Ks), want)
	}
	for v, k := range pk.Ks {
		if k.Cmp(s.params.Q) >= 0 {
			return nil, fmt.Errorf("wire: partial key %d not a reduced scalar", v)
		}
	}
	folded := new(big.Int)
	var term big.Int
	for v, k := range pk.Ks {
		term.Mul(coeffs[v], k)
		folded.Add(folded, &term)
	}
	return &ipPartial{node: r.node, index: pk.NodeIndex, ks: pk.Ks, folded: s.params.ReduceScalar(folded)}, nil
}

// BOKey implements securemat.KeyService.
func (s *QuorumKeyService) BOKey(cmt *big.Int, op febo.Op, y int64) (*febo.FunctionKey, error) {
	ks, err := s.BOKeyBatch([]*big.Int{cmt}, op, []int64{y})
	if err != nil {
		return nil, err
	}
	return ks[0], nil
}

// BOKeyBatch implements securemat.BatchKeyService: each node's partials
// cmt^{s^(j)} are admitted only with a valid DLEQ proof against its share
// commitment; the first T valid answers are combined and the public op
// transform applied client-side.
func (s *QuorumKeyService) BOKeyBatch(cmts []*big.Int, op febo.Op, ysc []int64) ([]*febo.FunctionKey, error) {
	if len(cmts) == 0 || len(cmts) != len(ysc) {
		return nil, fmt.Errorf("wire: %d commitments for %d scalars", len(cmts), len(ysc))
	}
	type boPartial struct {
		index int64
		ks    []*big.Int
	}
	var keys []*febo.FunctionKey
	var keysErr error
	var partials []boPartial
	seen := make(map[int64]bool)
	var lastErr error
	body, err := appendBORequest(nil, cmts, op, ysc)
	if err != nil {
		return nil, err
	}
	err = s.collect(bfPartialBOKeyBatch, bfPartialKeys, body, func(r partialResult) int {
		if r.err != nil {
			lastErr = r.err
			s.opts.Logger.Printf("quorum: partial BO keys from node %d: %v", r.node, r.err)
			return s.t - len(partials)
		}
		pk, err := decodePartialKeys(r.body, s.lim)
		if err != nil {
			lastErr = err
			return s.t - len(partials)
		}
		if pk.NodeIndex < 1 || pk.NodeIndex > int64(s.n) || seen[pk.NodeIndex] {
			lastErr = fmt.Errorf("wire: node claims share index %d", pk.NodeIndex)
			return s.t - len(partials)
		}
		if len(pk.Ks) != len(cmts) || pk.Proof == nil {
			lastErr = fmt.Errorf("wire: %d partials for %d commitments (proof present: %t)", len(pk.Ks), len(cmts), pk.Proof != nil)
			return s.t - len(partials)
		}
		if err := thresh.VerifyEqBatch(s.params, s.pubShares[pk.NodeIndex-1], cmts, pk.Ks, pk.Proof); err != nil {
			s.badPartials.Add(1)
			lastErr = fmt.Errorf("wire: node %d (share index %d) partial proof: %w", r.node, pk.NodeIndex, err)
			s.opts.Logger.Printf("quorum: %v", lastErr)
			return s.t - len(partials)
		}
		seen[pk.NodeIndex] = true
		partials = append(partials, boPartial{index: pk.NodeIndex, ks: pk.Ks})
		if len(partials) < s.t {
			return s.t - len(partials)
		}

		// T proof-checked partials: combine and transform.
		xs := make([]int64, s.t)
		parts := make([][]*big.Int, s.t)
		for i, p := range partials[:s.t] {
			xs[i], parts[i] = p.index, p.ks
		}
		cmtS, err := thresh.CombineElementsBatch(s.params, xs, parts)
		if err != nil {
			keysErr = err
			return 0
		}
		out := make([]*febo.FunctionKey, len(cmts))
		for v := range cmts {
			if out[v], err = febo.CompleteKey(s.params, cmtS[v], op, ysc[v]); err != nil {
				keysErr = err
				return 0
			}
		}
		keys = out
		return 0
	})
	if err != nil {
		return nil, err
	}
	if keysErr != nil {
		return nil, keysErr
	}
	if keys == nil {
		return nil, fmt.Errorf("%w: %d/%d valid partial BO answers (last error: %v)", ErrQuorum, len(partials), s.t, lastErr)
	}
	return keys, nil
}

// elementsFingerprint hashes a vector of group elements into a comparable
// vote key for quorum reads (length-prefixed so element boundaries cannot
// be shifted between distinct vectors with equal concatenations).
func elementsFingerprint(es []*big.Int) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, e := range es {
		b := e.Bytes()
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:])
		h.Write(b)
	}
	return string(h.Sum(nil))
}

// verifierCoeffs draws fresh 128-bit random-linear-combination
// coefficients. Unlike the prover-side Fiat–Shamir coefficients in
// internal/thresh these are verifier-private randomness, so they come from
// crypto/rand: a malicious node cannot predict them when crafting partials.
func verifierCoeffs(n int) ([]*big.Int, error) {
	coeffs := make([]*big.Int, n)
	buf := make([]byte, 16*n)
	if _, err := io.ReadFull(rand.Reader, buf); err != nil {
		return nil, fmt.Errorf("wire: drawing verifier coefficients: %w", err)
	}
	for i := range coeffs {
		coeffs[i] = new(big.Int).SetBytes(buf[16*i : 16*(i+1)])
	}
	return coeffs, nil
}

// Interface compliance checks.
var (
	_ securemat.KeyService      = (*QuorumKeyService)(nil)
	_ securemat.BatchKeyService = (*QuorumKeyService)(nil)
)
