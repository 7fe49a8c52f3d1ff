package wire

// QuorumKeyService: the client side of the threshold authority cluster.
// It implements securemat.KeyService / BatchKeyService against N node
// servers (NewNodeServer), any T of which suffice:
//
//   - requests fan out to every node concurrently with per-node I/O
//     deadlines; the first T valid partial answers win,
//   - stragglers and failed nodes are retried with jittered exponential
//     backoff up to a per-request attempt budget,
//   - FEIP keys are combined by Lagrange interpolation and verified
//     against the joint master public key with one random-linear-
//     combination check per request (g^{Σ e_v·k_v} == Π h_i^{Σ e_v·y_v,i});
//     if the first T-subset fails the check, other subsets are searched,
//     isolating a corrupted node without a per-key blame protocol,
//   - FEBO partials carry batched Chaum–Pedersen DLEQ proofs checked
//     against each node's public share commitment before the partial is
//     admitted to the combination (the combined FEBO key cannot be checked
//     against the joint public key — that would be a DDH instance),
//   - cluster configuration at bootstrap and joint FEIP public keys are
//     quorum reads: accepted only once T nodes serve them identically, so
//     a minority of compromised nodes cannot hand the client an
//     attacker-generated key to encrypt under.
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

	mu        sync.Mutex
	feipCache map[int]*feip.MasterPublicKey
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
		feipCache: make(map[int]*feip.MasterPublicKey),
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
}

// Stats snapshots the fan-out health counters.
func (s *QuorumKeyService) Stats() QuorumStats {
	st := QuorumStats{
		RoundTrips:  s.trips.Load(),
		Escalations: s.escalations.Load(),
		Hedges:      s.hedges.Load(),
		Suspicions:  s.suspicions.Load(),
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

// Verdicts a collect handler can return for an arrival.
const (
	// collectDone: the request is satisfied; stop.
	collectDone = iota
	// collectMore: keep waiting for already-contacted nodes.
	collectMore
	// collectEscalate: this answer was unusable (I/O failure surfaced by
	// the handler, rejected partial, failed combination) — contact an
	// additional node beyond the original T.
	collectEscalate
)

// collect runs a hedged fan-out: the request, encoded once into body, goes
// to `need` primary nodes (the
// non-suspect ones first), and the remaining nodes are contacted only when
// a primary fails (immediately) or stalls past HedgeDelay. The happy path
// therefore costs exactly `need` exchanges — T× a single authority, not
// N× — while wedged or dead primaries still cannot stall the request
// beyond the hedge delay. handle is called on every arrival; collect
// returns once handle says done or every contacted node has answered and
// no standby remains.
func (s *QuorumKeyService) collect(ftype, want byte, body []byte, need int, handle func(partialResult) int) error {
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
	if need > len(order) {
		need = len(order)
	}
	next := 0
	outstanding := 0
	for ; next < need; next++ {
		launch(order[next])
		outstanding++
	}
	hedge := time.NewTimer(s.opts.HedgeDelay)
	defer hedge.Stop()
	for outstanding > 0 {
		select {
		case r := <-ch:
			outstanding--
			escalate := r.err != nil
			switch handle(r) {
			case collectDone:
				return nil
			case collectEscalate:
				escalate = true
			}
			if escalate && next < len(order) {
				s.escalations.Add(1)
				launch(order[next])
				next++
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

// FEIPPublic implements securemat.KeyService: the joint master public key
// for dimension eta. Like bootstrap, this is a quorum read: the key the
// client will encrypt under is cached only after T nodes served it
// byte-identically, so up to T−1 compromised nodes cannot swap in an
// attacker-generated key whose secret they hold. Disagreement widens the
// fan-out so the honest majority still answers; an equivocating cluster
// can only fail the request, never poison the cache.
func (s *QuorumKeyService) FEIPPublic(eta int) (*feip.MasterPublicKey, error) {
	s.mu.Lock()
	cached, ok := s.feipCache[eta]
	s.mu.Unlock()
	if ok {
		return cached, nil
	}
	var got *feip.MasterPublicKey
	votes := make(map[string]int)
	seen := make(map[string]*feip.MasterPublicKey)
	var lastErr error
	body, err := appendU32(nil, eta)
	if err != nil {
		return nil, err
	}
	err = s.collect(bfFEIPPublic, bfPublicKey, body, s.t, func(r partialResult) int {
		if r.err != nil {
			lastErr = r.err
			return collectMore // collect escalates on r.err itself
		}
		m, err := decodePublicKey(r.body)
		if err != nil {
			lastErr = err
			return collectEscalate
		}
		mpk := &feip.MasterPublicKey{Params: s.params, H: m.H}
		if err := mpk.Validate(); err != nil {
			lastErr = fmt.Errorf("wire: node sent invalid FEIP key: %w", err)
			s.opts.Logger.Printf("quorum: %v", lastErr)
			return collectEscalate
		}
		if mpk.Eta() != eta {
			lastErr = fmt.Errorf("wire: FEIP key has dimension %d, want %d", mpk.Eta(), eta)
			return collectEscalate
		}
		fp := elementsFingerprint(m.H)
		votes[fp]++
		if seen[fp] == nil {
			seen[fp] = mpk
		}
		if votes[fp] >= s.t {
			got = seen[fp]
			return collectDone
		}
		if len(votes) > 1 {
			lastErr = errors.New("wire: nodes disagree on the joint FEIP public key")
			s.opts.Logger.Printf("quorum: %v", lastErr)
			return collectEscalate
		}
		return collectMore
	})
	if err != nil {
		return nil, err
	}
	if got == nil {
		return nil, fmt.Errorf("%w: η=%d public key not confirmed by %d nodes (last error: %v)", ErrQuorum, eta, s.t, lastErr)
	}
	s.mu.Lock()
	s.feipCache[eta] = got
	s.mu.Unlock()
	return got, nil
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

// ipPartial is one node's validated partial IP key batch, folded for the
// RLC check.
type ipPartial struct {
	index  int64
	ks     []*big.Int
	folded *big.Int // Σ_v e_v·ks[v] mod Q
}

// IPKeyBatch implements securemat.BatchKeyService: partial keys from the
// first T valid nodes, Lagrange-combined and verified against the joint
// public key in one batched check.
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
	mpk, err := s.FEIPPublic(eta)
	if err != nil {
		return nil, err
	}

	// The RLC coefficients and the verification RHS Π h_i^{Σ_v e_v·y_v,i}
	// are subset-independent: computed once per request.
	coeffs, err := verifierCoeffs(len(ys))
	if err != nil {
		return nil, err
	}
	rhsExps := make([]*big.Int, eta)
	for i := range rhsExps {
		acc := new(big.Int)
		var term big.Int
		for v, y := range ys {
			term.SetInt64(y[i])
			term.Mul(&term, coeffs[v])
			acc.Add(acc, &term)
		}
		rhsExps[i] = s.params.ReduceScalar(acc)
	}
	rhs := s.params.MultiExp(mpk.H, rhsExps)

	var keys []*feip.FunctionKey
	var partials []ipPartial
	suspicion := make(map[int64]int)
	var lastErr error
	body, err := appendScalarMatrix(nil, ys)
	if err != nil {
		return nil, err
	}
	err = s.collect(bfPartialIPKeyBatch, bfPartialKeys, body, s.t, func(r partialResult) int {
		if r.err != nil {
			lastErr = r.err
			s.opts.Logger.Printf("quorum: partial IP keys from node %d: %v", r.node, r.err)
			return collectMore // collect escalates on r.err itself
		}
		p, err := s.admitIPPartial(r, len(ys), coeffs)
		if err != nil {
			lastErr = err
			s.opts.Logger.Printf("quorum: node %d partial rejected: %v", r.node, err)
			return collectEscalate
		}
		partials = append(partials, *p)
		if len(partials) < s.t {
			return collectMore
		}
		if keys = s.combineIP(ys, partials, rhs, suspicion); keys != nil {
			return collectDone
		}
		// Some collected partial is corrupted: widen the subset search.
		lastErr = errors.New("wire: combined key failed verification against the joint public key")
		return collectEscalate
	})
	if err != nil {
		return nil, err
	}
	if keys == nil {
		return nil, fmt.Errorf("%w: %d/%d valid partial IP answers (last error: %v)", ErrQuorum, len(partials), s.t, lastErr)
	}
	return keys, nil
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
	return &ipPartial{index: pk.NodeIndex, ks: pk.Ks, folded: s.params.ReduceScalar(folded)}, nil
}

// combineIP searches T-subsets of the collected partials for one whose
// Lagrange combination passes the RLC check, returning the derived keys.
// The fold identity keeps the search cheap: for a subset with coefficients
// λ_j, Σ_v e_v·k_v = Σ_j λ_j·folded_j, so each candidate subset costs one
// fixed-base exponentiation, not a per-key pass.
//
// Each failed subset raises the suspicion score of its members (keyed by
// share index in the caller-held map, so knowledge persists as partials
// accumulate across calls), and the search always tries the least-suspect
// untried subset next: a corrupted partial collected early implicates
// itself and cannot starve an honest subset, whatever the enumeration
// order.
func (s *QuorumKeyService) combineIP(ys [][]int64, partials []ipPartial, rhs *big.Int, suspicion map[int64]int) []*feip.FunctionKey {
	subs, truncated := subsets(len(partials), s.t)
	if truncated {
		s.opts.Logger.Printf("quorum: subset search over %d partials truncated to %d candidates", len(partials), len(subs))
	}
	tried := make([]bool, len(subs))
	for range subs {
		best, bestScore := -1, 0
		for si, sub := range subs {
			if tried[si] {
				continue
			}
			score := 0
			for _, pi := range sub {
				score += suspicion[partials[pi].index]
			}
			if best < 0 || score < bestScore {
				best, bestScore = si, score
			}
		}
		subset := subs[best]
		tried[best] = true
		if keys := s.combineIPSubset(ys, partials, subset, rhs); keys != nil {
			return keys
		}
		for _, pi := range subset {
			suspicion[partials[pi].index]++
		}
	}
	return nil
}

// combineIPSubset Lagrange-combines one candidate subset and verifies it
// against the joint public key, returning nil if the subset is unusable
// (duplicate share indices) or fails the RLC check.
func (s *QuorumKeyService) combineIPSubset(ys [][]int64, partials []ipPartial, subset []int, rhs *big.Int) []*feip.FunctionKey {
	xs := make([]int64, s.t)
	seen := make(map[int64]bool, s.t)
	for i, pi := range subset {
		x := partials[pi].index
		if seen[x] {
			return nil
		}
		seen[x] = true
		xs[i] = x
	}
	lambdas, err := thresh.Lambda(s.params, xs)
	if err != nil {
		return nil
	}
	lhs := new(big.Int)
	var term big.Int
	for i, pi := range subset {
		term.Mul(lambdas[i], partials[pi].folded)
		lhs.Add(lhs, &term)
	}
	if s.params.PowG(s.params.ReduceScalar(lhs)).Cmp(rhs) != 0 {
		return nil
	}
	// Verified: materialize the per-vector keys for this subset.
	keys := make([]*feip.FunctionKey, len(ys))
	for v := range ys {
		k := new(big.Int)
		for i, pi := range subset {
			term.Mul(lambdas[i], partials[pi].ks[v])
			k.Add(k, &term)
		}
		keys[v] = &feip.FunctionKey{K: s.params.ReduceScalar(k)}
	}
	return keys
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
	err = s.collect(bfPartialBOKeyBatch, bfPartialKeys, body, s.t, func(r partialResult) int {
		if r.err != nil {
			lastErr = r.err
			s.opts.Logger.Printf("quorum: partial BO keys from node %d: %v", r.node, r.err)
			return collectMore // collect escalates on r.err itself
		}
		pk, err := decodePartialKeys(r.body, s.lim)
		if err != nil {
			lastErr = err
			return collectEscalate
		}
		if pk.NodeIndex < 1 || pk.NodeIndex > int64(s.n) || seen[pk.NodeIndex] {
			lastErr = fmt.Errorf("wire: node claims share index %d", pk.NodeIndex)
			return collectEscalate
		}
		if len(pk.Ks) != len(cmts) || pk.Proof == nil {
			lastErr = fmt.Errorf("wire: %d partials for %d commitments (proof present: %t)", len(pk.Ks), len(cmts), pk.Proof != nil)
			return collectEscalate
		}
		if err := thresh.VerifyEqBatch(s.params, s.pubShares[pk.NodeIndex-1], cmts, pk.Ks, pk.Proof); err != nil {
			lastErr = fmt.Errorf("wire: node %d partial proof: %w", r.node, err)
			s.opts.Logger.Printf("quorum: %v", lastErr)
			return collectEscalate
		}
		seen[pk.NodeIndex] = true
		partials = append(partials, boPartial{index: pk.NodeIndex, ks: pk.Ks})
		if len(partials) < s.t {
			return collectMore
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
			return collectDone
		}
		out := make([]*febo.FunctionKey, len(cmts))
		for v := range cmts {
			if out[v], err = febo.CompleteKey(s.params, cmtS[v], op, ysc[v]); err != nil {
				keysErr = err
				return collectDone
			}
		}
		keys = out
		return collectDone
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

// subsets yields size-k index subsets of [0, n), capped to keep the
// corrupted-node search bounded in memory (C(16,8)=12870 < cap, so every
// plausible cluster enumerates completely; truncated reports when a
// pathological configuration did hit the cap — the caller logs it rather
// than failing silently). Enumeration order is irrelevant to the caller,
// which reorders by suspicion.
func subsets(n, k int) (out [][]int, truncated bool) {
	const maxSubsets = 16384
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if len(out) >= maxSubsets {
			truncated = true
			return
		}
		if depth == k {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := start; i < n; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	if k <= n {
		rec(0, 0)
	}
	return out, truncated
}

// Interface compliance checks.
var (
	_ securemat.KeyService      = (*QuorumKeyService)(nil)
	_ securemat.BatchKeyService = (*QuorumKeyService)(nil)
)
