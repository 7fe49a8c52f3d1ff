package wire

// QuorumKeyService: the client side of the threshold authority cluster.
// It implements securemat.KeyService / BatchKeyService against N node
// servers (NewNodeServer), any T of which suffice:
//
//   - a request goes to T primary nodes, the non-suspect ones first. A
//     failed, refused or rejected answer escalates to a standby at once;
//     primaries that stall past HedgeDelay hedge to every standby,
//   - each exchange has a deadline, and a failing node is retried with
//     jittered exponential backoff up to a per-request attempt budget,
//   - partial keys pass one admission rule (collectPartials): at most one
//     partial per share index. FEIP partials are checked jointly, the
//     first T by one random-linear-combination identity against the joint
//     key, and each against its node's public share vector only after that
//     fails or a share index is claimed twice. FEBO partials are checked
//     per node, by their DLEQ proof against the node's share commitment
//     (the combined FEBO key cannot be checked against the joint key: that
//     would be a DDH instance). Every failed check is counted
//     (BadPartials) and logged by share index, and a standby replaces it,
//   - the cluster configuration and each dimension's FEIP public material
//     are quorum reads, accepted only once T nodes serve them identically,
//     so a minority of compromised nodes cannot hand the client a key to
//     encrypt under or a vector to blame an honest node with (bootstrap
//     states what the configuration, which carries T itself, also needs).
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

// Per-node failure handling: every exchange (dial included) is held to
// exchangeTimeout, and a node gets maxAttempts exchanges per request, the
// backoff between them starting at retryBase, doubling per attempt with
// ±50% jitter and capped at retryMax.
const (
	retryBase   = 50 * time.Millisecond
	retryMax    = 2 * time.Second
	maxAttempts = 3
)

// quorumTimings are the failure-handling constants a QuorumKeyService
// runs on; only the fault suites build one with shorter values.
type quorumTimings struct {
	timeout, retryBase, retryMax time.Duration
	attempts                     int
}

// QuorumOptions tune the quorum client. The zero value gets the defaults.
type QuorumOptions struct {
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

// QuorumKeyService is a fault-tolerant securemat key service backed by an
// N-of-T authority cluster. Safe for concurrent use.
type QuorumKeyService struct {
	nodes   []*quorumNode
	t, n    int
	opts    QuorumOptions
	timings quorumTimings

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
	dials := make([]func() (net.Conn, error), len(addrs))
	for i, addr := range addrs {
		dials[i] = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, exchangeTimeout) }
	}
	return NewQuorumKeyService(dials, opts)
}

// NewQuorumKeyService builds a quorum client over one dial function per
// cluster node (tests aim fault injection here via FaultDialer). It
// contacts the cluster for its configuration and joint FEBO key and fails
// if no node answers consistently.
func NewQuorumKeyService(dials []func() (net.Conn, error), opts QuorumOptions) (*QuorumKeyService, error) {
	return newQuorumKeyService(dials, opts, quorumTimings{exchangeTimeout, retryBase, retryMax, maxAttempts})
}

// newQuorumKeyService is NewQuorumKeyService on the given timings.
func newQuorumKeyService(dials []func() (net.Conn, error), opts QuorumOptions, timings quorumTimings) (*QuorumKeyService, error) {
	if len(dials) == 0 {
		return nil, errors.New("wire: quorum needs at least one node")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &QuorumKeyService{
		opts:      opts.withDefaults(),
		timings:   timings,
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
// share commitments) from a cluster-info fan-out. This is a quorum read: a
// configuration is accepted only when at least T nodes — its own claimed
// threshold — endorse it identically from distinct share indices, and
// those endorsers outnumber all other valid answers combined. With at most
// T−1 liars, an honest configuration that T nodes answer always passes,
// and a forged one (even one claiming a lower T) passes only if its liars
// outnumber the honest nodes that answer — for example after N−T honest
// nodes crash. Closing that case needs a threshold the client pins itself.
// Otherwise the liars can only withhold endorsement or split the vote,
// which fails the bootstrap instead of silently poisoning it.
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
	// A configuration's endorsers must reach its own claimed threshold and
	// outnumber every other valid answer combined: a liar claiming T = 1
	// endorses itself, but it cannot outvote the honest nodes that answer.
	// At most one configuration passes.
	valid := 0
	for _, c := range cands {
		valid += c.votes
	}
	var ref *clusterInfo
	for _, c := range cands {
		if c.votes >= c.ref.Threshold && 2*c.votes > valid {
			ref = c.ref
		}
	}
	if ref == nil {
		return fmt.Errorf("%w: no cluster configuration endorsed by its threshold and a majority of answering nodes (last error: %v)", ErrQuorum, lastErr)
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
		nd.mu.Lock()
		nd.closeLocked()
		nd.mu.Unlock()
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
	// check (collectPartials) and were dropped.
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
	for attempt := 0; attempt < s.timings.attempts; attempt++ {
		if attempt > 0 {
			step := min(s.timings.retryBase<<(attempt-1), s.timings.retryMax)
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
		reply, err = nd.exchange(s.ctx, ftype, want, body, s.timings.timeout)
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

// IPKeyBatch implements securemat.BatchKeyService. With fresh random e_v,
// r_i = Σ_v e_v·y_{v,i} and each partial folded to f_j = Σ_v e_v·k_{j,v},
// the first T partials are checked together, g^{Σ_j λ_j·f_j} = Π_i h_i^{r_i};
// each one's own check against its node's public share vector,
// g^{f_j} = Π_i (h^(j)_i)^{r_i}, runs only once that fails or a share
// index is claimed twice (collectPartials).
func (s *QuorumKeyService) IPKeyBatch(ys [][]int64) ([]*feip.FunctionKey, error) {
	if len(ys) == 0 {
		return nil, errors.New("wire: empty key batch")
	}
	body, err := appendScalarMatrix(nil, ys) // rejects a ragged batch
	if err != nil {
		return nil, err
	}
	eta := len(ys[0])
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
	var term big.Int
	for i := range rs {
		rs[i] = new(big.Int)
		for v, y := range ys {
			rs[i].Add(rs[i], term.Mul(term.SetInt64(y[i]), coeffs[v]))
		}
		rs[i].Mod(rs[i], s.params.Q)
	}
	// holds checks g^{lhs} = Π_i bases_i^{r_i}: over the joint key with the
	// Lagrange-combined fold it checks a quorum, over node j's share vector
	// with its own fold it checks node j alone.
	holds := func(bases []*big.Int, lhs *big.Int) bool {
		return s.params.PowG(lhs).Cmp(s.params.MultiExp(bases, rs)) == 0
	}
	fold := func(ks []*big.Int) (*big.Int, error) {
		f := new(big.Int)
		for v, k := range ks {
			if k.Cmp(s.params.Q) >= 0 {
				return nil, fmt.Errorf("partial key %d not a reduced scalar", v)
			}
			f.Add(f, term.Mul(coeffs[v], k))
		}
		return f.Mod(f, s.params.Q), nil
	}
	xs, parts, err := s.collectPartials("IP", bfPartialIPKeyBatch, body, len(ys), partialChecks{
		own: func(p *partialKeys) error {
			f, err := fold(p.Ks)
			if err == nil && !holds(pub.shares[p.NodeIndex-1], f) {
				err = errors.New("its fold fails the check against its share vector")
			}
			return err
		},
		joint: func(xs []int64, parts [][]*big.Int) bool {
			folded := make([]*big.Int, len(parts))
			for j, ks := range parts {
				var err error
				if folded[j], err = fold(ks); err != nil {
					return false
				}
			}
			lambdas, err := thresh.Lambda(s.params, xs)
			return err == nil && holds(pub.mpk.H, thresh.CombineScalars(s.params, lambdas, folded))
		},
	})
	if err != nil {
		return nil, err
	}
	lambdas, err := thresh.Lambda(s.params, xs)
	if err != nil {
		return nil, err
	}
	keys := make([]*feip.FunctionKey, len(ys))
	vals := make([]*big.Int, len(parts))
	for v := range keys {
		for j, ks := range parts {
			vals[j] = ks[v]
		}
		keys[v] = &feip.FunctionKey{K: thresh.CombineScalars(s.params, lambdas, vals)}
	}
	return keys, nil
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
// cmt^{s^(j)} count only with a valid DLEQ proof against its share
// commitment; the first T are combined and the public op transform
// applied client-side. An operand no key exists for (÷ by a multiple of Q)
// is refused here, with febo's error, before any node is asked.
func (s *QuorumKeyService) BOKeyBatch(cmts []*big.Int, op febo.Op, ysc []int64) ([]*febo.FunctionKey, error) {
	if len(cmts) == 0 || len(cmts) != len(ysc) {
		return nil, fmt.Errorf("wire: %d commitments for %d scalars", len(cmts), len(ysc))
	}
	if err := febo.CheckOperands(s.params, op, ysc); err != nil {
		return nil, err
	}
	body, err := appendBORequest(nil, cmts, op, ysc)
	if err != nil {
		return nil, err
	}
	xs, parts, err := s.collectPartials("BO", bfPartialBOKeyBatch, body, len(cmts), partialChecks{
		own: func(p *partialKeys) error {
			return thresh.VerifyEqBatch(s.params, s.pubShares[p.NodeIndex-1], cmts, p.Ks, p.Proof)
		},
	})
	if err != nil {
		return nil, err
	}
	cmtS, err := thresh.CombineElementsBatch(s.params, xs, parts)
	if err != nil {
		return nil, err
	}
	keys := make([]*febo.FunctionKey, len(cmts))
	for v := range cmts {
		if keys[v], err = febo.CompleteKey(s.params, cmtS[v], op, ysc[v]); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// partialChecks are all that set one key kind's partials apart. own checks
// one partial against its own node's public material. joint, when set,
// checks T partials together, and own then runs only after joint fails or
// two answers claim one share index; a kind without joint checks every
// partial on its own from the start.
type partialChecks struct {
	own   func(p *partialKeys) error
	joint func(xs []int64, parts [][]*big.Int) bool
}

// collectPartials runs one partial-key fan-out and returns the first T
// answers that pass their checks: their share indices and key vectors. An
// answer must claim a share index in [1, N] and carry count keys, and at
// most one answer per share index is held. Every failed check is counted
// (BadPartials) and logged by share index, and the node is replaced by a
// standby.
func (s *QuorumKeyService) collectPartials(kind string, ftype byte, body []byte, count int, chk partialChecks) ([]int64, [][]*big.Int, error) {
	type held struct {
		node int
		*partialKeys
	}
	var (
		partials []held
		perNode  = chk.joint == nil
		xs       []int64
		parts    [][]*big.Int
		lastErr  error
	)
	honest := func(p held) bool {
		err := chk.own(p.partialKeys)
		if err == nil {
			return true
		}
		s.badPartials.Add(1)
		lastErr = fmt.Errorf("wire: node %d (share index %d) sent partial %s keys that fail its own check: %w", p.node, p.NodeIndex, kind, err)
		s.opts.Logger.Printf("quorum: %v", lastErr)
		return false
	}
	checkEach := func() {
		perNode = true
		partials = slices.DeleteFunc(partials, func(p held) bool { return !honest(p) })
	}
	err := s.collect(ftype, bfPartialKeys, body, func(r partialResult) int {
		p := held{node: r.node}
		err := r.err
		if err == nil {
			p.partialKeys, err = decodePartialKeys(r.body, s.lim)
		}
		if err == nil && (p.NodeIndex < 1 || p.NodeIndex > int64(s.n) || len(p.Ks) != count) {
			err = fmt.Errorf("wire: answer claims share index %d with %d keys, want an index in [1, %d] and %d keys", p.NodeIndex, len(p.Ks), s.n, count)
		}
		if err != nil {
			lastErr = err
			s.opts.Logger.Printf("quorum: partial %s keys from node %d: %v", kind, r.node, err)
			return s.t - len(partials)
		}
		isHeld := func() bool {
			return slices.ContainsFunc(partials, func(q held) bool { return q.NodeIndex == p.NodeIndex })
		}
		if !perNode && isHeld() {
			checkEach() // two answers claim one share index: one of them lies
		}
		if perNode && !honest(p) {
			return s.t - len(partials)
		}
		if isHeld() {
			lastErr = fmt.Errorf("wire: node %d claims share index %d, already held", r.node, p.NodeIndex)
			return s.t - len(partials)
		}
		partials = append(partials, p)
		if len(partials) < s.t {
			return s.t - len(partials)
		}
		xs, parts = make([]int64, s.t), make([][]*big.Int, s.t)
		for j, q := range partials[:s.t] {
			xs[j], parts[j] = q.NodeIndex, q.Ks
		}
		if !perNode && !chk.joint(xs, parts) {
			xs, parts = nil, nil
			checkEach()
			if len(partials) == s.t {
				lastErr = errors.New("wire: every partial passes its own check but their combination fails the joint one: the cluster's share vectors do not match its joint key")
			}
			return s.t - len(partials)
		}
		return 0
	})
	if err == nil && xs == nil {
		err = fmt.Errorf("%w: %d/%d valid partial %s answers (last error: %v)", ErrQuorum, len(partials), s.t, kind, lastErr)
	}
	return xs, parts, err
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
