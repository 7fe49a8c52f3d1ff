package authority

// Threshold authority cluster: the single trusted party of Fig. 1 split
// into N share-holding nodes, any T of which can derive function keys.
// No node — and no code path — ever materializes a whole master secret:
// FEIP master scalars and the FEBO master secret exist only as Shamir
// shares produced by the dealerless DKG in internal/thresh.
//
// Both schemes are linear in their master secrets, so nodes answer with
// partials that a client combines by Lagrange interpolation at x = 0:
//
//   FEIP  k_j = ⟨y, s^(j)⟩            →  sk_f = Σ λ_j·k_j mod Q
//   FEBO  P_j = cmt^{s^(j)} (+ DLEQ)  →  cmt^s = (Π P_j^{n_j})^{D⁻¹ mod Q}
//
// where λ_j = n_j/D: the FEBO combination keeps the Lagrange coefficients
// as small integer numerators over one common denominator, so a key costs
// a few multiplications, plus one exponentiation by D⁻¹ when D ≠ 1. The
// quorum {1, …, T} has D = 1 (thresh.CombineElementsBatch).
//
// wire.QuorumKeyService is the combining client; Cluster/Node here hold
// the share-side state. An in-process Cluster extends itself to new FEIP
// dimensions lazily (the DKG runs among the node states it owns); a
// detached Node loaded from a ShareFile serves exactly the dimensions the
// provisioning ceremony covered and reports ErrNotProvisioned beyond
// them — re-run the ceremony to extend a deployed cluster.

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/thresh"
)

// ErrNotProvisioned reports a partial-key request for a FEIP dimension the
// node holds no shares for. In-process clusters extend lazily and never
// return it; file-provisioned nodes cannot run a unilateral DKG, so the
// operator must re-run the provisioning ceremony with the new dimension.
var ErrNotProvisioned = errors.New("authority: dimension not provisioned on this node")

// feipState is one FEIP dimension's threshold state: the joint public
// key, every node's public share vector, and the secret share vectors,
// each wrapped once in the master secret key a partial derivation runs on,
// so its packed limbs are built on the first batch and reused by every
// later one.
type feipState struct {
	mpk *feip.MasterPublicKey
	// pubShares[j-1][i] = g^{s^(j)_i} is node j's public share of master
	// scalar s_i; clients check node j's partials against that vector.
	pubShares [][]*big.Int
	// msks[j-1].S[i] = s^(j)_i is node j's share of s_i (nil where not held).
	msks []*feip.MasterSecretKey
}

// feboState is the FEBO threshold state: the joint public key, the secret
// shares (nil where not held) and the public share commitments
// A_j = g^{s^(j)} clients verify partial-key DLEQ proofs against.
type feboState struct {
	pk        *febo.PublicKey
	shares    []*big.Int
	pubShares []*big.Int
}

// Cluster owns the shared threshold state of an N-of-T authority cluster,
// and every Node reads its state through one. It is safe for concurrent
// use. An in-process Cluster (NewCluster) holds every node's shares and
// DKGs FEIP dimensions lazily on first request, under one lock, so every
// node sees the same joint keys. LoadNode builds a provisioned one from a
// share file: it holds one node's secret shares and serves exactly the
// dimensions the ceremony covered, since one node cannot run a DKG alone.
type Cluster struct {
	params      *group.Params
	t, n        int
	rnd         io.Reader
	provisioned bool

	mu   sync.Mutex
	feip map[int]*feipState
	febo *feboState
}

// NewCluster runs the FEBO DKG and prepares an N-node cluster with
// reconstruction threshold t. Randomness is drawn from rnd (crypto/rand
// when nil).
func NewCluster(params *group.Params, policy Policy, t, n int, rnd io.Reader) (*Cluster, []*Node, error) {
	if params == nil {
		return nil, nil, errors.New("authority: nil group parameters")
	}
	if err := params.Validate(); err != nil {
		return nil, nil, fmt.Errorf("authority: %w", err)
	}
	if err := thresh.CheckTN(t, n); err != nil {
		return nil, nil, fmt.Errorf("authority: %w", err)
	}
	c := &Cluster{
		params: params,
		t:      t,
		n:      n,
		rnd:    rnd,
		feip:   make(map[int]*feipState),
	}
	res, err := thresh.RunDKG(params, t, n, rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("authority: FEBO cluster setup: %w", err)
	}
	c.febo = &feboState{
		pk:        &febo.PublicKey{Params: params, H: res.Pub},
		shares:    make([]*big.Int, n),
		pubShares: res.PubShares,
	}
	for j, sh := range res.Shares {
		c.febo.shares[j] = sh.V
	}
	nodes := make([]*Node, n)
	for j := 1; j <= n; j++ {
		nodes[j-1] = &Node{cluster: c, params: params, policy: policy, index: int64(j), t: t, n: n}
	}
	return c, nodes, nil
}

// feipDim returns (running the DKG on first use, unless the cluster is
// provisioned) the threshold state for dimension eta.
func (c *Cluster) feipDim(eta int) (*feipState, error) {
	if eta <= 0 {
		return nil, fmt.Errorf("authority: invalid FEIP dimension %d", eta)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.feip[eta]; ok {
		return d, nil
	}
	if c.provisioned {
		return nil, fmt.Errorf("%w: η=%d", ErrNotProvisioned, eta)
	}
	d := &feipState{
		mpk:       &feip.MasterPublicKey{Params: c.params, H: make([]*big.Int, eta)},
		pubShares: make([][]*big.Int, c.n),
		msks:      make([]*feip.MasterSecretKey, c.n),
	}
	for j := range d.msks {
		d.pubShares[j] = make([]*big.Int, eta)
		d.msks[j] = &feip.MasterSecretKey{S: make([]*big.Int, eta)}
	}
	// One dealerless DKG per master scalar s_i: the joint h_i = g^{s_i},
	// each node's share of s_i and its public share g^{s^(j)_i}, with Σ
	// contributions never summed at index 0.
	for i := 0; i < eta; i++ {
		res, err := thresh.RunDKG(c.params, c.t, c.n, c.rnd)
		if err != nil {
			return nil, fmt.Errorf("authority: FEIP DKG for η=%d coordinate %d: %w", eta, i, err)
		}
		d.mpk.H[i] = res.Pub
		for j, msk := range d.msks {
			msk.S[i] = res.Shares[j].V
			d.pubShares[j][i] = res.PubShares[j]
		}
	}
	c.feip[eta] = d
	return d, nil
}

// Node is one share-holding member of an authority cluster. It exposes
// the same public-key surface as Authority plus partial-key derivation;
// it can never produce a whole function key. A Node is safe for
// concurrent use.
type Node struct {
	cluster *Cluster
	params  *group.Params
	policy  Policy
	index   int64
	t, n    int

	mu    sync.Mutex
	stats Stats
}

// Index returns the node's 1-based share index.
func (nd *Node) Index() int64 { return nd.index }

// Threshold returns the cluster's reconstruction threshold T.
func (nd *Node) Threshold() int { return nd.t }

// ClusterSize returns the cluster's node count N.
func (nd *Node) ClusterSize() int { return nd.n }

// Params returns the group parameters the node operates over.
func (nd *Node) Params() *group.Params { return nd.params }

// Stats returns a snapshot of partial-key issuance counters.
func (nd *Node) Stats() Stats {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.stats
}

// FEIPPublic returns the cluster's joint inner-product master public key
// for dimension eta (creating it on first use for in-process clusters).
func (nd *Node) FEIPPublic(eta int) (*feip.MasterPublicKey, error) {
	d, err := nd.cluster.feipDim(eta)
	if err != nil {
		return nil, err
	}
	return d.mpk, nil
}

// FEIPSharePublics returns every node's public share vector for dimension
// eta, indexed by share index − 1: entry i of node j's vector is
// g^{s^(j)_i}. Clients check node j's partial IP keys against it.
func (nd *Node) FEIPSharePublics(eta int) ([][]*big.Int, error) {
	d, err := nd.cluster.feipDim(eta)
	if err != nil {
		return nil, err
	}
	return d.pubShares, nil
}

// FEBOPublic returns the cluster's joint basic-operation public key.
func (nd *Node) FEBOPublic() (*febo.PublicKey, error) {
	return nd.cluster.febo.pk, nil
}

// FEBOSharePublics returns every node's public share commitment
// A_j = g^{s^(j)}, indexed by share index − 1. Clients verify partial
// FEBO keys' DLEQ proofs against these.
func (nd *Node) FEBOSharePublics() []*big.Int {
	return nd.cluster.febo.pubShares
}

// PartialIPKeyBatch derives this node's partial inner-product keys
// k_j = ⟨y, s^(j)⟩ mod Q, one per weight vector y, in order, subject to
// policy. Any T nodes' partials for one vector combine to its function key
// via thresh.CombineScalars.
func (nd *Node) PartialIPKeyBatch(ys [][]int64) ([]*big.Int, error) {
	if !nd.policy.DotProduct {
		return nil, fmt.Errorf("%w: dot-product", ErrNotPermitted)
	}
	if len(ys) == 0 {
		return nil, errors.New("authority: empty key batch")
	}
	eta := len(ys[0])
	// The share vector is a drop-in master secret for the derivation
	// arithmetic: partial derivation IS KeyDerive over the share.
	d, err := nd.cluster.feipDim(eta)
	if err != nil {
		return nil, err
	}
	msk := d.msks[nd.index-1]
	out := make([]*big.Int, len(ys))
	for i, y := range ys {
		if len(y) != eta {
			return nil, fmt.Errorf("authority: batch vector %d has η=%d, want %d", i, len(y), eta)
		}
		fk, err := feip.KeyDerive(nd.params, msk, y)
		if err != nil {
			return nil, fmt.Errorf("authority: partial key for vector %d: %w", i, err)
		}
		out[i] = fk.K
	}
	nd.mu.Lock()
	nd.stats.IPKeys += uint64(len(ys))
	nd.stats.IPKeyScalars += uint64(len(ys) * eta)
	nd.mu.Unlock()
	return out, nil
}

// PartialBOKeyBatch derives this node's partial basic-operation keys
// P_j = cmt^{s^(j)} for every commitment (febo.RaiseCommitments under the
// share), subject to policy, together with one batched Chaum–Pedersen
// proof that each partial was raised to the node's committed share. The
// op-dependent transform (·g^{∓y}, ^y, ^{y⁻¹}) is public and applied by the
// combining client. The lowest failing element is the one named, before
// any commitment is raised.
func (nd *Node) PartialBOKeyBatch(cmts []*big.Int, op febo.Op, ys []int64) ([]*big.Int, *thresh.EqProof, error) {
	if !nd.policy.BasicOps[op] {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotPermitted, op)
	}
	if len(cmts) == 0 || len(cmts) != len(ys) {
		return nil, nil, fmt.Errorf("authority: %d commitments for %d scalars", len(cmts), len(ys))
	}
	// Refuse what the client could not complete (÷ by a multiple of Q)
	// before raising anything to the share.
	if err := febo.CheckOperands(nd.params, op, ys); err != nil {
		return nil, nil, fmt.Errorf("authority: %w", err)
	}
	fb := nd.cluster.febo
	share := fb.shares[nd.index-1]
	out, err := febo.RaiseCommitments(nd.params, share, cmts)
	if err != nil {
		return nil, nil, fmt.Errorf("authority: %w", err)
	}
	proof, err := thresh.ProveEqBatch(nd.params, share, fb.pubShares[nd.index-1], cmts, out, nd.cluster.rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("authority: partial key proof: %w", err)
	}
	nd.mu.Lock()
	nd.stats.BOKeys += uint64(len(cmts))
	nd.mu.Unlock()
	return out, proof, nil
}
