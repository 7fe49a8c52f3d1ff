package authority

// Share-file provisioning: the bridge between an in-process Cluster (the
// setup ceremony) and networked authority nodes. The ceremony host runs
// NewCluster, extends it to every FEIP dimension training will need, and
// writes one NodeShareFile per node; each authority process loads exactly
// its own file and serves partial keys from it. A node's file holds only
// that node's shares — compromising one file reveals nothing about the
// master secrets as long as fewer than T files leak.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/thresh"
)

// FEIPProvision is one FEIP dimension's state in a share file: the joint
// master public key vector, every node's public share vector and this
// node's share of each master scalar.
type FEIPProvision struct {
	// H is the joint master public key, H[i] = g^{s_i}.
	H []*big.Int
	// SharePubs[j-1][i] = g^{s^(j)_i} is node j's public share of s_i, the
	// vector clients check node j's partial keys against.
	SharePubs [][]*big.Int
	// Shares[i] is this node's Shamir share of s_i.
	Shares []*big.Int
}

// NodeShareFile is the gob-serialized provisioning record for one cluster
// node. It carries the group so a node process needs no out-of-band
// parameter agreement, and the public material (joint keys, share
// commitments) alongside the node's private shares.
type NodeShareFile struct {
	Index int64
	T, N  int

	GroupP, GroupQ, GroupG *big.Int

	// FEBOShare is this node's share of the FEBO master secret;
	// FEBOPub = g^s is the joint public key and FEBOSharePubs[j-1] = g^{s^(j)}
	// are all nodes' share commitments (DLEQ verification keys).
	FEBOShare     *big.Int
	FEBOPub       *big.Int
	FEBOSharePubs []*big.Int

	// FEIP maps dimension η to the provisioned threshold state.
	FEIP map[int]FEIPProvision
}

// ShareFile materializes node j's provisioning record covering the given
// FEIP dimensions (running their DKGs if not yet done). Every node's file
// for one cluster must come from the same Cluster value, or the shares
// will not interpolate.
func (c *Cluster) ShareFile(j int, etas []int) (*NodeShareFile, error) {
	if j < 1 || j > c.n {
		return nil, fmt.Errorf("authority: node index %d outside 1..%d", j, c.n)
	}
	f := &NodeShareFile{
		Index:         int64(j),
		T:             c.t,
		N:             c.n,
		GroupP:        c.params.P,
		GroupQ:        c.params.Q,
		GroupG:        c.params.G,
		FEBOShare:     c.febo.shares[j-1],
		FEBOPub:       c.febo.pk.H,
		FEBOSharePubs: c.febo.pubShares,
		FEIP:          make(map[int]FEIPProvision, len(etas)),
	}
	sorted := append([]int(nil), etas...)
	sort.Ints(sorted)
	for _, eta := range sorted {
		d, err := c.feipDim(eta)
		if err != nil {
			return nil, err
		}
		f.FEIP[eta] = FEIPProvision{H: d.mpk.H, SharePubs: d.pubShares, Shares: d.msks[j-1].S}
	}
	return f, nil
}

// Encode gob-encodes the share file.
func (f *NodeShareFile) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(f)
}

// ReadNodeShareFile decodes a share file written by WriteTo.
func ReadNodeShareFile(r io.Reader) (*NodeShareFile, error) {
	var f NodeShareFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("authority: decoding share file: %w", err)
	}
	return &f, nil
}

// LoadNode builds a detached Node from a provisioning record. The node
// serves exactly the provisioned dimensions; requests beyond them get
// ErrNotProvisioned. The group parameters embedded in the file are fully
// re-validated — a tampered file fails here, not at key-derivation time.
func LoadNode(f *NodeShareFile, policy Policy) (*Node, error) {
	if f == nil {
		return nil, errors.New("authority: nil share file")
	}
	if err := thresh.CheckTN(f.T, f.N); err != nil {
		return nil, fmt.Errorf("authority: share file: %w", err)
	}
	if f.Index < 1 || f.Index > int64(f.N) {
		return nil, fmt.Errorf("authority: share file index %d outside 1..%d", f.Index, f.N)
	}
	params := &group.Params{P: f.GroupP, Q: f.GroupQ, G: f.GroupG}
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("authority: share file group: %w", err)
	}
	if f.FEBOShare == nil || f.FEBOPub == nil || len(f.FEBOSharePubs) != f.N {
		return nil, errors.New("authority: share file missing FEBO state")
	}
	if err := checkElements(params, "FEBO public key", []*big.Int{f.FEBOPub}); err != nil {
		return nil, err
	}
	if err := checkElements(params, "FEBO share commitment", f.FEBOSharePubs); err != nil {
		return nil, err
	}
	// The node's own commitment must match its share, or every partial key
	// it issues would fail the client's DLEQ check.
	if params.PowG(f.FEBOShare).Cmp(f.FEBOSharePubs[f.Index-1]) != 0 {
		return nil, errors.New("authority: share file FEBO share does not match its commitment")
	}
	shares := make([]*big.Int, f.N)
	shares[f.Index-1] = f.FEBOShare
	c := &Cluster{
		params:      params,
		t:           f.T,
		n:           f.N,
		provisioned: true,
		feip:        make(map[int]*feipState, len(f.FEIP)),
		febo:        &feboState{pk: &febo.PublicKey{Params: params, H: f.FEBOPub}, shares: shares, pubShares: f.FEBOSharePubs},
	}
	for eta, prov := range f.FEIP {
		d, err := loadFEIP(params, f, eta, prov)
		if err != nil {
			return nil, err
		}
		c.feip[eta] = d
	}
	return &Node{cluster: c, params: params, policy: policy, index: f.Index, t: f.T, n: f.N}, nil
}

// loadFEIP validates one provisioned FEIP dimension: every public vector
// has η group elements, there are N share vectors, and the node's own
// share vector is g^{share} coordinate by coordinate, or every partial key
// it issues would fail the client's per-node check.
func loadFEIP(params *group.Params, f *NodeShareFile, eta int, prov FEIPProvision) (*feipState, error) {
	if eta <= 0 || len(prov.H) != eta || len(prov.Shares) != eta || len(prov.SharePubs) != f.N {
		return nil, fmt.Errorf("authority: share file FEIP provision for η=%d is malformed", eta)
	}
	what := fmt.Sprintf("FEIP η=%d", eta)
	if err := checkElements(params, what+" joint key", prov.H); err != nil {
		return nil, err
	}
	for j, pubs := range prov.SharePubs {
		if len(pubs) != eta {
			return nil, fmt.Errorf("authority: share file FEIP η=%d share vector %d has %d elements", eta, j+1, len(pubs))
		}
		if err := checkElements(params, fmt.Sprintf("%s share vector %d", what, j+1), pubs); err != nil {
			return nil, err
		}
	}
	own := prov.SharePubs[f.Index-1]
	for i, s := range prov.Shares {
		if s == nil || params.PowG(s).Cmp(own[i]) != 0 {
			return nil, fmt.Errorf("authority: share file FEIP η=%d share %d does not match its public share", eta, i)
		}
	}
	msks := make([]*feip.MasterSecretKey, f.N)
	msks[f.Index-1] = &feip.MasterSecretKey{S: prov.Shares}
	return &feipState{mpk: &feip.MasterPublicKey{Params: params, H: prov.H}, pubShares: prov.SharePubs, msks: msks}, nil
}

// checkElements rejects a public vector holding a nil or a non-element.
func checkElements(params *group.Params, what string, es []*big.Int) error {
	for i, e := range es {
		if e == nil || !params.IsElement(e) {
			return fmt.Errorf("authority: share file %s %d: %w", what, i, group.ErrNotInGroup)
		}
	}
	return nil
}
