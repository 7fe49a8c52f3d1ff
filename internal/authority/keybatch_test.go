package authority

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	_ "unsafe" // go:linkname

	"cryptonn/internal/febo"
	"cryptonn/internal/group"
	"cryptonn/internal/par"
	"cryptonn/internal/thresh"
)

// groupUseLanes is group's lane-kernel selection, read from CPUID at start
// (group/lanes_amd64.go). It is not an option; the key-batch tests and
// benchmark deselect it through deselectLanes to run the scalar body on
// CPUs that have the lanes.
//
//go:linkname groupUseLanes cryptonn/internal/group.useLanes
var groupUseLanes bool

// deselectLanes turns group's lane kernel off until t ends.
func deselectLanes(t testing.TB) {
	saved := groupUseLanes
	groupUseLanes = false
	t.Cleanup(func() { groupUseLanes = saved })
}

// kernels runs fn once with group's kernel selection as it stands ("lanes",
// the scalar kernel on CPUs without IFMA) and once with the lanes
// deselected ("scalar").
func kernels(t *testing.T, fn func(t *testing.T)) {
	t.Run("lanes", fn)
	t.Run("scalar", func(t *testing.T) {
		deselectLanes(t)
		fn(t)
	})
}

// ladderRaise is the reference every batched raise must match value for
// value: one membership check and one ExpMont ladder per commitment, the
// ladder spread over every core one commitment at a time.
func ladderRaise(params *group.Params, s *big.Int, cmts []*big.Int) ([]*big.Int, error) {
	for i, cmt := range cmts {
		if !params.IsElement(cmt) {
			return nil, fmt.Errorf("commitment %d not a group element", i)
		}
	}
	mc := params.Mont()
	out := make([]*big.Int, len(cmts))
	err := par.ForEachChunk(len(cmts), 1, 0, mc.Elem, func(i, _ int, buf []uint64) error {
		mc.ToMont(buf, cmts[i])
		mc.ExpMont(buf, buf, s)
		out[i] = mc.FromMont(buf)
		return nil
	})
	return out, err
}

// feboCommitments returns n commitments of FEBO ciphertexts under pk.
func feboCommitments(t testing.TB, pk *febo.PublicKey, n int, rnd *rand.Rand) []*big.Int {
	cmts := make([]*big.Int, n)
	for i := range cmts {
		ct, err := febo.Encrypt(pk, int64(i), rnd)
		if err != nil {
			t.Fatal(err)
		}
		cmts[i] = ct.Cmt
	}
	return cmts
}

// paperCluster is a 3-of-5 cluster and a single authority at the paper's
// 256 bits, where group has its lane kernel.
func paperCluster(t testing.TB) (*Authority, []*Node) {
	params, err := group.Embedded(group.PaperBits)
	if err != nil {
		t.Fatal(err)
	}
	auth, err := New(params, AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	_, nodes, err := NewCluster(params, AllowAll(), 3, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	return auth, nodes
}

// TestFEBOKeyBatchMatchesLadder pins the batched raise to the ladder it
// replaced, at run lengths that leave a lone base, fill a lane run exactly,
// spill one base past it and cover one training step, with the lanes and
// without: a node's partials equal cmt^{share} by ladder and still carry a
// proof that verifies, and the single authority's keys equal
// cmt^{s·m}·g^a, the table's key raised in one ladder.
func TestFEBOKeyBatchMatchesLadder(t *testing.T) {
	auth, nodes := paperCluster(t)
	params := auth.Params()
	nd := nodes[1]
	share := nd.cluster.febo.shares[nd.index-1]
	s := auth.feboSK.S
	cmts := feboCommitments(t, auth.feboPK, 80, rand.New(rand.NewSource(11)))
	kernels(t, func(t *testing.T) {
		for _, n := range []int{1, 2, 7, 8, 9, 80} {
			want, err := ladderRaise(params, share, cmts[:n])
			if err != nil {
				t.Fatal(err)
			}
			ys := make([]int64, n)
			for i := range ys {
				ys[i] = int64(i) - 40
			}
			got, proof, err := nd.PartialBOKeyBatch(cmts[:n], febo.OpSub, ys)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for i := range want {
				if got[i].Cmp(want[i]) != 0 {
					t.Fatalf("n=%d: partial %d differs from the ladder's", n, i)
				}
			}
			if err := thresh.VerifyEqBatch(params, nd.FEBOSharePublics()[nd.index-1], cmts[:n], got, proof); err != nil {
				t.Fatalf("n=%d: partial proof: %v", n, err)
			}
			for _, op := range []febo.Op{febo.OpSub, febo.OpMul} {
				keys, err := auth.BOKeyBatch(cmts[:n], op, ys)
				if err != nil {
					t.Fatalf("n=%d %s: %v", n, op, err)
				}
				for i, y := range ys {
					e, a := s, big.NewInt(y)
					if op == febo.OpMul {
						e, a = params.ReduceScalar(new(big.Int).Mul(s, a)), new(big.Int)
					}
					direct, err := ladderRaise(params, e, cmts[i:i+1])
					if err != nil {
						t.Fatal(err)
					}
					if want := params.Mul(direct[0], params.PowG(a)); keys[i].K.Cmp(want) != 0 {
						t.Fatalf("n=%d %s: key %d differs from cmt^{s·m}·g^a", n, op, i)
					}
				}
			}
		}
	})
}

// TestFEBOKeyBatchRefusesNonMemberFirst: a commitment outside the group —
// first, at index 9 inside the second lane run, or last of a step's 80 — is
// named by the single authority and by a node, nothing is counted, and the
// refusal costs no allocation more at index 79 than at index 0, which a
// raise of the 79 commitments before it would (counts are not compared
// under the race detector: raceEnabled).
func TestFEBOKeyBatchRefusesNonMemberFirst(t *testing.T) {
	auth, nodes := paperCluster(t)
	params := auth.Params()
	cmts := feboCommitments(t, auth.feboPK, 80, rand.New(rand.NewSource(12)))
	ys := make([]int64, len(cmts))
	nonMember := new(big.Int).Sub(params.P, big.NewInt(1)) // −1: order 2
	kernels(t, func(t *testing.T) {
		allocs := map[int][2]float64{}
		for _, bad := range []int{0, 9, 79} {
			batch := append([]*big.Int(nil), cmts...)
			batch[bad] = nonMember
			want := fmt.Sprintf("authority: batch element %d:", bad)
			_, err := auth.BOKeyBatch(batch, febo.OpSub, ys)
			if err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, febo.ErrMalformed) {
				t.Errorf("authority, element %d bad: err = %v, want %q", bad, err, want)
			}
			_, _, err = nodes[0].PartialBOKeyBatch(batch, febo.OpSub, ys)
			if err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, febo.ErrMalformed) {
				t.Errorf("node, element %d bad: err = %v, want %q", bad, err, want)
			}
			if raceEnabled {
				continue
			}
			allocs[bad] = [2]float64{
				testing.AllocsPerRun(5, func() { _, _ = auth.BOKeyBatch(batch, febo.OpSub, ys) }),
				testing.AllocsPerRun(5, func() { _, _, _ = nodes[0].PartialBOKeyBatch(batch, febo.OpSub, ys) }),
			}
		}
		for _, bad := range []int{9, 79} {
			if allocs[bad] != allocs[0] {
				t.Errorf("refusing element %d allocates %v (authority, node), element 0 %v", bad, allocs[bad], allocs[0])
			}
		}
	})
	if got := auth.Stats().BOKeys; got != 0 {
		t.Errorf("authority counted %d keys", got)
	}
	if got := nodes[0].Stats().BOKeys; got != 0 {
		t.Errorf("node counted %d partials", got)
	}
}

// BenchmarkFEBOKeyBatch prices one training step's 80 FEBO keys at the
// paper's 256 bits, op −: a node's partials with their proof and the single
// authority's keys, raised on the lanes, on the scalar kernel, and by the
// ExpMont ladder per commitment they replaced (ladderRaise, then the same
// proof or completion). At -cpu 1, ns/op ÷ 80 is the cost per base that
// group/ephemeral.go's table quotes.
func BenchmarkFEBOKeyBatch(b *testing.B) {
	auth, nodes := paperCluster(b)
	params := auth.Params()
	nd := nodes[0]
	share := nd.cluster.febo.shares[nd.index-1]
	cmts := feboCommitments(b, auth.feboPK, 80, rand.New(rand.NewSource(13)))
	ys := make([]int64, len(cmts))
	for i := range ys {
		ys[i] = int64(i)
	}
	roles := []struct {
		name   string
		batch  func() error
		ladder func() error
	}{
		{"node", func() error {
			_, _, err := nd.PartialBOKeyBatch(cmts, febo.OpSub, ys)
			return err
		}, func() error {
			out, err := ladderRaise(params, share, cmts)
			if err != nil {
				return err
			}
			_, err = thresh.ProveEqBatch(params, share, nd.FEBOSharePublics()[nd.index-1], cmts, out, nil)
			return err
		}},
		{"authority", func() error {
			_, err := auth.BOKeyBatch(cmts, febo.OpSub, ys)
			return err
		}, func() error {
			out, err := ladderRaise(params, auth.feboSK.S, cmts)
			for i := 0; err == nil && i < len(out); i++ {
				_, err = febo.CompleteKey(params, out[i], febo.OpSub, ys[i])
			}
			return err
		}},
	}
	for _, r := range roles {
		for _, kernel := range []string{"lanes", "scalar", "ladder"} {
			b.Run(r.name+"/"+kernel, func(b *testing.B) {
				run := r.batch
				switch kernel {
				case "scalar":
					deselectLanes(b)
				case "ladder":
					run = r.ladder
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
