package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/big"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/thresh"
)

// testCluster is an N-node threshold authority cluster listening on
// loopback.
type testCluster struct {
	nodes   []*authority.Node
	servers []*AuthorityServer
	addrs   []string
	cancel  context.CancelFunc
}

// lockedReader makes a seeded math/rand source safe to share: the nodes of
// an in-process cluster all draw proof randomness from the one reader.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

// ipKeyHolds reports g^k = Π_i H_i^{y_i}: an inner-product key for y
// verifies against the joint public key.
func ipKeyHolds(mpk *feip.MasterPublicKey, k *big.Int, y []int64) bool {
	p := mpk.Params
	rhs := big.NewInt(1)
	for i, h := range mpk.H {
		rhs = p.Mul(rhs, p.Exp(h, big.NewInt(y[i])))
	}
	return p.PowG(k).Cmp(rhs) == 0
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

func startCluster(t testing.TB, th, n int, seed int64) *testCluster {
	t.Helper()
	return startClusterBits(t, group.TestBits, th, n, seed)
}

func startClusterBits(t testing.TB, bits, th, n int, seed int64) *testCluster {
	t.Helper()
	params, err := group.Embedded(bits)
	if err != nil {
		t.Fatalf("embedded group: %v", err)
	}
	_, nodes, err := authority.NewCluster(params, authority.AllowAll(), th, n, &lockedReader{r: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tc := &testCluster{nodes: nodes, cancel: cancel}
	for _, nd := range nodes {
		srv, err := NewNodeServer(nd, nil, AuthorityServerOptions{})
		if err != nil {
			t.Fatalf("NewNodeServer: %v", err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go srv.Serve(ctx, l) //nolint:errcheck // returns net.ErrClosed on shutdown
		tc.servers = append(tc.servers, srv)
		tc.addrs = append(tc.addrs, l.Addr().String())
	}
	t.Cleanup(tc.stop)
	return tc
}

func (tc *testCluster) stop() {
	tc.cancel()
	for _, s := range tc.servers {
		_ = s.Close()
	}
}

// dialers returns one plain dial function per node.
func (tc *testCluster) dialers() []func() (net.Conn, error) {
	out := make([]func() (net.Conn, error), len(tc.addrs))
	for i, addr := range tc.addrs {
		addr := addr
		out[i] = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, time.Second) }
	}
	return out
}

func testSolver(t testing.TB, pk *febo.PublicKey) *dlog.Solver {
	t.Helper()
	s, err := dlog.NewSolver(pk.Params, 200)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// faultAfterOneExchange arms a FaultPlan inside a connection's second
// response. A client connection's first exchange is five reads+writes
// (hello out, ack in, request out, response header in, response body in);
// the reader then posts the next header read at once (6) and the second
// request goes out (7), so the fault lands between the second response's
// header and its body: the connection dies mid-frame, the client times
// out, redials, and the fresh connection again serves exactly one exchange.
const faultAfterOneExchange = 7

// quickTimings replace the deployed failure-handling constants in the
// fault suites, so a dead node costs milliseconds of backoff, not seconds.
var quickTimings = quorumTimings{timeout: 2 * time.Second, retryBase: 5 * time.Millisecond, retryMax: 50 * time.Millisecond, attempts: 3}

func quickOpts() QuorumOptions {
	// Short, so the slow-primary suites see their hedges within a test's
	// patience; the default is sized for deployments.
	return QuorumOptions{HedgeDelay: 25 * time.Millisecond}
}

// verifyIPKeys derives keys for ys and checks them against the joint
// public key, g^k == Π h_i^{y_i}.
func verifyIPKeys(t *testing.T, q *QuorumKeyService, ys [][]int64) []*feip.FunctionKey {
	t.Helper()
	keys, err := q.IPKeyBatch(ys)
	if err != nil {
		t.Fatalf("IPKeyBatch: %v", err)
	}
	mpk, err := q.FEIPPublic(len(ys[0]))
	if err != nil {
		t.Fatal(err)
	}
	for v, fk := range keys {
		if !ipKeyHolds(mpk, fk.K, ys[v]) {
			t.Fatalf("key %d fails verification against the joint public key", v)
		}
	}
	return keys
}

func TestQuorumDerivesVerifiedKeys(t *testing.T) {
	tc := startCluster(t, 3, 5, 1)
	q, err := newQuorumKeyService(tc.dialers(), quickOpts(), quickTimings)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()

	if th, n := q.Threshold(); th != 3 || n != 5 {
		t.Fatalf("Threshold() = (%d,%d)", th, n)
	}
	verifyIPKeys(t, q, [][]int64{{1, -2, 3}, {4, 0, -6}, {7, 8, 9}})

	// FEBO: the combined key must decrypt an addition correctly.
	pk, err := q.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := febo.Encrypt(pk, 21, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	fk, err := q.BOKey(ct.Cmt, febo.OpAdd, 13)
	if err != nil {
		t.Fatalf("BOKey: %v", err)
	}
	got, err := febo.Decrypt(pk, fk, ct, febo.OpAdd, 13, testSolver(t, pk))
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	if got != 34 {
		t.Fatalf("21+13 decrypted to %d", got)
	}

	// The client-side half of the key transform is febo's, int64 boundaries
	// included: negating y = math.MinInt64 in machine arithmetic overflows.
	ct, err = febo.Encrypt(pk, math.MaxInt64, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	fk, err = q.BOKey(ct.Cmt, febo.OpAdd, math.MinInt64)
	if err != nil {
		t.Fatalf("BOKey(y = MinInt64): %v", err)
	}
	got, err = febo.Decrypt(pk, fk, ct, febo.OpAdd, math.MinInt64, testSolver(t, pk))
	if err != nil || got != -1 {
		t.Fatalf("MaxInt64+MinInt64 decrypted to %d, %v; want -1", got, err)
	}
}

func TestQuorumToleratesSlowAndDeadNodes(t *testing.T) {
	tc := startCluster(t, 3, 5, 3)
	dials := tc.dialers()
	// Node 0 wedges mid-frame on the second exchange of every connection
	// (see faultAfterOneExchange); node 1 is slow but functional.
	dials[0] = FaultDialer(dials[0], FaultPlan{Mode: FaultDrop, AfterOps: faultAfterOneExchange})
	dials[1] = FaultDialer(dials[1], FaultPlan{ReadDelay: 30 * time.Millisecond, WriteDelay: 30 * time.Millisecond})

	tm := quickTimings
	tm.timeout = 300 * time.Millisecond
	q, err := newQuorumKeyService(dials, quickOpts(), tm)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()

	verifyIPKeys(t, q, [][]int64{{5, -1, 2, 8}})

	// Now kill two servers outright (N−T = 2): requests must still
	// succeed against the remaining three.
	_ = tc.servers[3].Close()
	_ = tc.servers[4].Close()
	verifyIPKeys(t, q, [][]int64{{2, 2, 2, 2}, {-3, 1, 0, 4}})

	pk, err := q.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := febo.Encrypt(pk, 6, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	fk, err := q.BOKey(ct.Cmt, febo.OpMul, 7)
	if err != nil {
		t.Fatalf("BOKey with two dead nodes: %v", err)
	}
	if got, err := febo.Decrypt(pk, fk, ct, febo.OpMul, 7, testSolver(t, pk)); err != nil || got != 42 {
		t.Fatalf("6*7 = %d, %v", got, err)
	}
}

// TestQuorumBOKeysWithoutNodesOneAndThree runs the combination's D ≠ 1
// branch end to end: with nodes 1 and 3 down the quorum is {2, 4, 5}, whose
// Lagrange coefficients are (10, −15, 8)/3. The keys must be byte-identical
// to the ones the whole cluster issues (quorum {1, 2, 3}, D = 1) and must
// decrypt.
func TestQuorumBOKeysWithoutNodesOneAndThree(t *testing.T) {
	tc := startCluster(t, 3, 5, 6)
	q, err := newQuorumKeyService(tc.dialers(), quickOpts(), quickTimings)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()
	pk, err := q.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	xs := []int64{21, -4, 0, 9, 1000, -77}
	cts := make([]*febo.Ciphertext, len(xs))
	cmts := make([]*big.Int, len(xs))
	for i, x := range xs {
		if cts[i], err = febo.Encrypt(pk, x, rng); err != nil {
			t.Fatal(err)
		}
		cmts[i] = cts[i].Cmt
	}
	ys := []int64{13, 5, -8, 1, -1, 3}
	ops := []febo.Op{febo.OpAdd, febo.OpSub, febo.OpMul}
	apply := map[febo.Op]func(x, y int64) int64{
		febo.OpAdd: func(x, y int64) int64 { return x + y },
		febo.OpSub: func(x, y int64) int64 { return x - y },
		febo.OpMul: func(x, y int64) int64 { return x * y },
	}
	healthy := make([][]*febo.FunctionKey, len(ops))
	for o, op := range ops {
		if healthy[o], err = q.BOKeyBatch(cmts, op, ys); err != nil {
			t.Fatalf("%s with every node up: %v", op, err)
		}
	}
	_ = tc.servers[0].Close()
	_ = tc.servers[2].Close()
	solver := testSolver(t, pk)
	for o, op := range ops {
		keys, err := q.BOKeyBatch(cmts, op, ys)
		if err != nil {
			t.Fatalf("%s without nodes 1 and 3: %v", op, err)
		}
		for i, fk := range keys {
			if fk.K.Cmp(healthy[o][i].K) != 0 {
				t.Fatalf("%s value %d: quorum {2,4,5} key differs from the whole cluster's", op, i)
			}
			want := apply[op](xs[i], ys[i])
			if want < -200 || want > 200 {
				continue // outside testSolver's bound
			}
			if got, err := febo.Decrypt(pk, fk, cts[i], op, ys[i], solver); err != nil || got != want {
				t.Fatalf("%d %s %d decrypted to %d, %v; want %d", xs[i], op, ys[i], got, err, want)
			}
		}
	}
}

func TestQuorumFailsBelowThreshold(t *testing.T) {
	tc := startCluster(t, 3, 3, 5)
	tm := quickTimings
	tm.timeout = 200 * time.Millisecond
	tm.attempts = 2
	q, err := newQuorumKeyService(tc.dialers(), quickOpts(), tm)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()

	verifyIPKeys(t, q, [][]int64{{1, 2}})

	_ = tc.servers[0].Close() // T = N = 3: any loss breaks quorum
	if _, err := q.IPKeyBatch([][]int64{{1, 2}}); !errors.Is(err, ErrQuorum) {
		t.Fatalf("want ErrQuorum below threshold, got %v", err)
	}
}

// startRewriting replaces cluster node i with a proxy that applies an
// arbitrary rewrite to each response body while forwarding everything else
// — the shape of a compromised but protocol-conformant cluster member.
func startRewriting(t testing.TB, tc *testCluster, i int, rewrite func(reqType byte, respType byte, body []byte) []byte) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	honest := tc.addrs[i]
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if acceptHello(conn) != nil {
					return
				}
				up, err := Dial(honest)
				if err != nil {
					return
				}
				defer up.Close()
				down := newBinConn(conn)
				for {
					ftype, id, body, err := down.readFrame()
					if err != nil {
						return
					}
					rep, err := up.call(context.Background(), ftype, rawBody(body))
					if err != nil {
						return
					}
					if down.writeFrame(rep.ftype, id, rawBody(rewrite(ftype, rep.ftype, rep.body))) != nil {
						return
					}
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { _ = l.Close() })
	return l.Addr().String()
}

// reframe is a rewrite helper: it re-encodes a decoded response, failing
// the test if the forged message cannot be expressed.
func reframe(t testing.TB, fill fillFunc) []byte {
	t.Helper()
	body, err := fill(nil)
	if err != nil {
		t.Errorf("forging response: %v", err)
	}
	return body
}

// startCorrupting replaces cluster node i with a proxy that shifts its
// first partial key by i+1 while forwarding everything else. The shift
// differs per node so that two liars cannot cancel in a combination: with
// λ = (3, −3, 1), equal shifts on nodes 1 and 2 would leave the combined
// key correct.
func startCorrupting(t testing.TB, tc *testCluster, i int) string {
	t.Helper()
	// Corrupt partial keys only; leave the DLEQ proof as produced, so FEIP
	// corruption is caught by the joint check and then blamed by the
	// per-node check, and FEBO corruption by the proof.
	return startRewriting(t, tc, i, func(_, respType byte, body []byte) []byte {
		pk, err := decodePartialKeys(body, anyGroup)
		if respType != bfPartialKeys || err != nil || len(pk.Ks) == 0 {
			return body
		}
		pk.Ks[0] = new(big.Int).Add(pk.Ks[0], big.NewInt(int64(i+1)))
		return reframe(t, func(b []byte) ([]byte, error) { return appendPartialKeys(b, pk) })
	})
}

func TestQuorumRejectsCorruptedPartials(t *testing.T) {
	tc := startCluster(t, 3, 5, 7)
	evil := startCorrupting(t, tc, 2)
	dials := tc.dialers()
	dials[2] = func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }

	q, err := newQuorumKeyService(dials, quickOpts(), quickTimings)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()

	// Repeat so arrival-order races make the corrupted node land inside
	// the first T at least sometimes; every request must still yield keys
	// that verify against the joint public key.
	for i := 0; i < 8; i++ {
		verifyIPKeys(t, q, [][]int64{{int64(i + 1), -2, 3}, {0, int64(i), 5}})
	}

	pk, err := q.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ct, err := febo.Encrypt(pk, int64(10+i), rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		fk, err := q.BOKey(ct.Cmt, febo.OpSub, 4)
		if err != nil {
			t.Fatalf("BOKey round %d: %v", i, err)
		}
		if got, err := febo.Decrypt(pk, fk, ct, febo.OpSub, 4, testSolver(t, pk)); err != nil || got != int64(6+i) {
			t.Fatalf("round %d: %d-4 = %d, %v", i, 10+i, got, err)
		}
	}
}

func TestQuorumConcurrentHammer(t *testing.T) {
	tc := startCluster(t, 3, 5, 9)
	dials := tc.dialers()
	// One flaky node to keep the retry path busy under -race.
	dials[4] = FaultDialer(dials[4], FaultPlan{Mode: FaultReset, AfterOps: faultAfterOneExchange})
	tm := quickTimings
	tm.timeout = 500 * time.Millisecond
	q, err := newQuorumKeyService(dials, quickOpts(), tm)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()

	pk, err := q.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	solver := testSolver(t, pk)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if g%2 == 0 {
					ys := [][]int64{{int64(g), int64(i), 1}, {2, int64(g + i), -1}}
					keys, err := q.IPKeyBatch(ys)
					if err != nil {
						errc <- fmt.Errorf("goroutine %d IPKeyBatch: %w", g, err)
						return
					}
					mpk, err := q.FEIPPublic(3)
					if err != nil {
						errc <- err
						return
					}
					for v, fk := range keys {
						if !ipKeyHolds(mpk, fk.K, ys[v]) {
							errc <- fmt.Errorf("goroutine %d: unverified key", g)
							return
						}
					}
				} else {
					ct, err := febo.Encrypt(pk, int64(i), rand.New(rand.NewSource(int64(g*10+i))))
					if err != nil {
						errc <- err
						return
					}
					fk, err := q.BOKey(ct.Cmt, febo.OpAdd, int64(g))
					if err != nil {
						errc <- fmt.Errorf("goroutine %d BOKey: %w", g, err)
						return
					}
					got, err := febo.Decrypt(pk, fk, ct, febo.OpAdd, int64(g), solver)
					if err != nil || got != int64(i+g) {
						errc <- fmt.Errorf("goroutine %d: %d+%d = %d, %v", g, i, g, got, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestNodeServerRefusesWholeKeys pins the structural property: node
// servers cannot emit a complete function key.
func TestNodeServerRefusesWholeKeys(t *testing.T) {
	tc := startCluster(t, 2, 3, 11)
	cc, err := Dial(tc.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	ip := func(b []byte) ([]byte, error) { return appendScalarMatrix(b, [][]int64{{1}}) }
	bo := func(b []byte) ([]byte, error) {
		return appendBORequest(b, []*big.Int{big.NewInt(1)}, febo.OpAdd, []int64{1})
	}
	for ftype, fill := range map[byte]fillFunc{bfIPKeyBatch: ip, bfBOKeyBatch: bo,
		bfIPKeySparse: func(b []byte) ([]byte, error) { return appendSparseKeyRequest(b, 2, []int{0}, []int64{1}) }} {
		rep, err := cc.call(context.Background(), ftype, fill)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ftype != bfErr {
			t.Fatalf("node served whole-key request %s with %s", frameName(ftype), frameName(rep.ftype))
		}
	}
}

// TestPartialProofsVerifyAgainstClusterInfo exercises the exported
// surface end to end: cluster info → DLEQ verification of one node's
// partials, as the quorum client does internally.
func TestPartialProofsVerifyAgainstClusterInfo(t *testing.T) {
	tc := startCluster(t, 2, 3, 13)
	cc, err := Dial(tc.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	info := clusterInfoFrom(t, tc.addrs[1])
	params, err := info.Key.params()
	if err != nil {
		t.Fatal(err)
	}

	cmts := []*big.Int{params.PowGInt64(3), params.PowGInt64(11)}
	body, err := cc.request(context.Background(), bfPartialBOKeyBatch, bfPartialKeys, func(b []byte) ([]byte, error) {
		return appendBORequest(b, cmts, febo.OpMul, []int64{1, 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodePartialKeys(body, limitsFor(params, maxBinCount))
	if err != nil {
		t.Fatal(err)
	}
	share := info.shares()[resp.NodeIndex-1]
	if err := thresh.VerifyEqBatch(params, share, cmts, resp.Ks, resp.Proof); err != nil {
		t.Fatalf("partial proof rejected: %v", err)
	}
	// Tampering any partial must break the proof.
	resp.Ks[1] = params.Mul(resp.Ks[1], params.G)
	if err := thresh.VerifyEqBatch(params, share, cmts, resp.Ks, resp.Proof); err == nil {
		t.Fatal("tampered partial passed DLEQ verification")
	}
}

// clusterInfoFrom queries one node's cluster-info view directly, outside
// the quorum client.
func clusterInfoFrom(t *testing.T, addr string) *clusterInfo {
	t.Helper()
	cc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	body, err := cc.request(context.Background(), bfClusterInfo, bfCluster, emptyBody)
	if err != nil {
		t.Fatal(err)
	}
	info, err := decodeClusterInfo(body)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestQuorumBootstrapRequiresThresholdEndorsement pins the quorum-read
// bootstrap: with T=N=3, one node serving a forged cluster view (an
// attacker-generated joint key and share commitments, all well-formed)
// leaves only two honest endorsements, so the client must refuse to start
// — whichever answer arrives first — rather than risk caching a joint key
// whose secret the attacker holds.
func TestQuorumBootstrapRequiresThresholdEndorsement(t *testing.T) {
	params, err := group.Embedded(group.TestBits)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 3, 3, 17)
	evil := startRewriting(t, tc, 0, func(_, respType byte, body []byte) []byte {
		ci, err := decodeClusterInfo(body)
		if respType != bfCluster || err != nil {
			return body
		}
		ci.Key.H[0] = params.PowGInt64(31337)
		for j := range ci.shares() {
			ci.shares()[j] = params.PowGInt64(int64(1000 + j))
		}
		return reframe(t, func(b []byte) ([]byte, error) { return appendClusterInfo(b, ci) })
	})
	dials := tc.dialers()
	dials[0] = func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }
	q, err := newQuorumKeyService(dials, quickOpts(), quickTimings)
	if err == nil {
		q.Close()
		t.Fatal("bootstrap accepted a cluster view lacking threshold endorsement")
	}
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("want ErrQuorum, got %v", err)
	}
}

// TestQuorumBootstrapRejectsSelfEndorsedThreshold: with T=N=3, one node
// answers cluster-info claiming T = 1, with a joint key and share
// commitments of its own making. Its one vote meets the threshold it
// claims, but the two honest nodes that answered outnumber it, so the
// client must refuse to start rather than adopt a key the attacker holds.
func TestQuorumBootstrapRejectsSelfEndorsedThreshold(t *testing.T) {
	params, err := group.Embedded(group.TestBits)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 3, 3, 37)
	forged := params.PowGInt64(31337)
	evil := startRewriting(t, tc, 0, func(_, respType byte, body []byte) []byte {
		ci, err := decodeClusterInfo(body)
		if respType != bfCluster || err != nil {
			return body
		}
		// At T = 1 every share is the secret itself.
		ci.Threshold = 1
		for j := range ci.Key.H {
			ci.Key.H[j] = forged
		}
		return reframe(t, func(b []byte) ([]byte, error) { return appendClusterInfo(b, ci) })
	})
	dials := tc.dialers()
	dials[0] = func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }
	q, err := newQuorumKeyService(dials, quickOpts(), quickTimings)
	if err == nil {
		th, n := q.Threshold()
		q.Close()
		t.Fatalf("bootstrap adopted a %d-of-%d configuration instead of failing", th, n)
	}
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("want ErrQuorum, got %v", err)
	}
}

// TestQuorumBootstrapOutvotesForkedClusterInfo: with T=2 and N=3, the two
// honest nodes outvote one forged view regardless of arrival order, and
// the client adopts the honest joint FEBO key.
func TestQuorumBootstrapOutvotesForkedClusterInfo(t *testing.T) {
	params, err := group.Embedded(group.TestBits)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 2, 3, 19)
	forged := params.PowGInt64(31337)
	evil := startRewriting(t, tc, 0, func(_, respType byte, body []byte) []byte {
		ci, err := decodeClusterInfo(body)
		if respType != bfCluster || err != nil {
			return body
		}
		ci.Key.H[0] = forged
		return reframe(t, func(b []byte) ([]byte, error) { return appendClusterInfo(b, ci) })
	})
	dials := tc.dialers()
	dials[0] = func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }
	q, err := newQuorumKeyService(dials, quickOpts(), quickTimings)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()
	pk, err := q.FEBOPublic()
	if err != nil {
		t.Fatal(err)
	}
	if pk.H.Cmp(forged) == 0 {
		t.Fatal("client adopted the forged joint key")
	}
	if honest := clusterInfoFrom(t, tc.addrs[1]); pk.H.Cmp(honest.joint()) != 0 {
		t.Fatal("adopted joint key matches neither the forged nor the honest view")
	}
	verifyIPKeys(t, q, [][]int64{{1, -2, 3}})
}

// TestQuorumBootstrapSurvivesMalformedClusterInfo: a node answering
// cluster-info with a body cut short of its share commitments must cost
// that node its vote — not panic the client — and the honest majority
// still bootstraps.
func TestQuorumBootstrapSurvivesMalformedClusterInfo(t *testing.T) {
	tc := startCluster(t, 2, 3, 23)
	evil := startRewriting(t, tc, 2, func(_, respType byte, body []byte) []byte {
		if respType == bfCluster {
			return body[:len(body)/2]
		}
		return body
	})
	dials := tc.dialers()
	dials[2] = func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }
	q, err := newQuorumKeyService(dials, quickOpts(), quickTimings)
	if err != nil {
		t.Fatalf("NewQuorumKeyService with one malformed responder: %v", err)
	}
	defer q.Close()
	verifyIPKeys(t, q, [][]int64{{2, 0, -5}})
}

// TestQuorumFEIPPublicOutvotesForgedKey pins the quorum read on FEIP
// public material: one compromised node serving a well-formed but
// attacker-generated joint key, and another serving the honest joint key
// followed by forged share vectors, can never win the vote, whatever the
// arrival order; the honest nodes confirm the real key and vectors. The
// second node also corrupts its partial keys, and with the honest vectors
// adopted that corruption is blamed on it, by share index.
func TestQuorumFEIPPublicOutvotesForgedKey(t *testing.T) {
	params, err := group.Embedded(group.TestBits)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 3, 5, 29)
	// forging node i rewrites its feip-public answers from element `from(η)`
	// on, and with corrupt set also flips its partial keys.
	forging := func(i int, from func(eta int) int, corrupt bool) func() (net.Conn, error) {
		evil := startRewriting(t, tc, i, func(reqType, respType byte, body []byte) []byte {
			if pk, err := decodePartialKeys(body, anyGroup); corrupt && respType == bfPartialKeys && err == nil {
				pk.Ks[0] = new(big.Int).Add(pk.Ks[0], big.NewInt(1))
				return reframe(t, func(b []byte) ([]byte, error) { return appendPartialKeys(b, pk) })
			}
			m, err := decodePublicKey(body)
			if reqType != bfFEIPPublic || respType != bfPublicKey || err != nil {
				return body
			}
			eta := len(m.H) / (len(tc.nodes) + 1)
			for i := from(eta); i < len(m.H); i++ {
				m.H[i] = params.PowGInt64(int64(7 + i))
			}
			return reframe(t, func(b []byte) ([]byte, error) { return appendPublicKey(b, params, m.H) })
		})
		return func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }
	}
	dials := tc.dialers()
	dials[1] = forging(1, func(int) int { return 0 }, false)
	dials[2] = forging(2, func(eta int) int { return eta }, true)
	opts := quickOpts()
	opts.HedgeDelay = time.Minute // the corrupt node stays among the first T
	logs := &lockedBuffer{}
	opts.Logger = log.New(logs, "", 0)
	q, err := newQuorumKeyService(dials, opts, quickTimings)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()

	// Vary η so each round is a fresh (uncached) vote with its own
	// arrival order.
	for eta := 2; eta <= 5; eta++ {
		pub, err := q.feipPublicsFor(eta)
		if err != nil {
			t.Fatalf("FEIPPublic(%d): %v", eta, err)
		}
		want, err := tc.nodes[0].FEIPPublic(eta)
		if err != nil {
			t.Fatal(err)
		}
		wantShares, err := tc.nodes[0].FEIPSharePublics(eta)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range pub.mpk.H {
			if h.Cmp(want.H[i]) != 0 {
				t.Fatalf("η=%d: adopted key differs from the honest key at h[%d]", eta, i)
			}
		}
		for j, pubs := range pub.shares {
			for i, h := range pubs {
				if h.Cmp(wantShares[j][i]) != 0 {
					t.Fatalf("η=%d: adopted share vector %d differs from the honest one at %d", eta, j+1, i)
				}
			}
		}
	}
	verifyIPKeys(t, q, [][]int64{{1, 2, 3}, {-4, 5, 0}})
	if got := q.Stats().BadPartials; got != 1 {
		t.Fatalf("BadPartials = %d, want 1", got)
	}
	if !strings.Contains(logs.String(), "share index 3") {
		t.Fatalf("no log line blames share index 3:\n%s", logs.String())
	}
}

// blameKinds are the two partial-key kinds the blame tests run over: keys
// derives request i's keys from q, checks them against the cluster's public
// keys and returns them. FEIP requests have η = 3.
var blameKinds = []struct {
	name string
	keys func(t *testing.T, q *QuorumKeyService, i int) []*big.Int
}{
	{
		name: "FEIP",
		keys: func(t *testing.T, q *QuorumKeyService, i int) []*big.Int {
			t.Helper()
			var out []*big.Int
			for _, fk := range verifyIPKeys(t, q, [][]int64{{int64(i), -3, 5}, {2, 2, int64(-i)}}) {
				out = append(out, fk.K)
			}
			return out
		},
	},
	{
		name: "FEBO",
		keys: func(t *testing.T, q *QuorumKeyService, i int) []*big.Int {
			t.Helper()
			pk, err := q.FEBOPublic()
			if err != nil {
				t.Fatal(err)
			}
			xs, ys := []int64{int64(10 + i), int64(-7 - i)}, []int64{4, -3}
			cts := make([]*febo.Ciphertext, len(xs))
			cmts := make([]*big.Int, len(xs))
			for v, x := range xs {
				if cts[v], err = febo.Encrypt(pk, x, rand.New(rand.NewSource(int64(2*i+v)))); err != nil {
					t.Fatal(err)
				}
				cmts[v] = cts[v].Cmt
			}
			fks, err := q.BOKeyBatch(cmts, febo.OpSub, ys)
			if err != nil {
				t.Fatalf("BOKeyBatch: %v", err)
			}
			solver := testSolver(t, pk)
			out := make([]*big.Int, len(fks))
			for v, fk := range fks {
				if got, err := febo.Decrypt(pk, fk, cts[v], febo.OpSub, ys[v], solver); err != nil || got != xs[v]-ys[v] {
					t.Fatalf("%d-%d decrypts to %d, %v", xs[v], ys[v], got, err)
				}
				out[v] = fk.K
			}
			return out
		},
	},
}

// TestQuorumBlamesCorruptPrimaries puts N−T corrupt partials first: in a
// 3-of-5 cluster the first two nodes corrupt every partial and are
// primaries. Both are blamed and dropped and the two standbys escalated:
// for FEIP after the joint check fails once and each partial is checked on
// its own, for FEBO by their proofs. The keys are byte-identical to an
// honest cluster's after exactly one exchange per node.
func TestQuorumBlamesCorruptPrimaries(t *testing.T) {
	tc := startCluster(t, 3, 5, 31)
	dials := tc.dialers()
	for i := 0; i < 2; i++ {
		evil := startCorrupting(t, tc, i)
		dials[i] = func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }
	}
	opts := quickOpts()
	opts.HedgeDelay = time.Minute // standbys join only by escalation
	for _, kind := range blameKinds {
		t.Run(kind.name, func(t *testing.T) {
			q, err := newQuorumKeyService(dials, opts, quickTimings)
			if err != nil {
				t.Fatalf("NewQuorumKeyService: %v", err)
			}
			defer q.Close()
			honest, err := newQuorumKeyService(tc.dialers(), quickOpts(), quickTimings)
			if err != nil {
				t.Fatal(err)
			}
			defer honest.Close()

			want := kind.keys(t, honest, 1)
			if _, err := q.FEIPPublic(3); err != nil { // the quorum read is not counted below
				t.Fatal(err)
			}
			trips := q.RoundTrips()
			got := kind.keys(t, q, 1)
			for v := range want {
				if got[v].Cmp(want[v]) != 0 {
					t.Fatalf("key %d differs from the honest cluster's", v)
				}
			}
			if n := q.RoundTrips() - trips; n != 5 {
				t.Errorf("%d round trips, want 5 (three primaries, two escalations)", n)
			}
			if st := q.Stats(); st.BadPartials != 2 || st.Escalations != 2 {
				t.Errorf("BadPartials = %d, Escalations = %d; want 2, 2", st.BadPartials, st.Escalations)
			}
		})
	}
}

// TestQuorumBlamesShareIndexImpostor: a node that answers under another
// node's share index must not cost that node its place. Whichever of the two
// answers arrives first, the impostor is checked and blamed and the honest
// one kept, for either key kind.
func TestQuorumBlamesShareIndexImpostor(t *testing.T) {
	tc := startCluster(t, 3, 5, 37)
	evil := startRewriting(t, tc, 0, func(_, respType byte, body []byte) []byte {
		pk, err := decodePartialKeys(body, anyGroup)
		if respType != bfPartialKeys || err != nil {
			return body
		}
		pk.NodeIndex = 2 // node 2 is a primary too
		return reframe(t, func(b []byte) ([]byte, error) { return appendPartialKeys(b, pk) })
	})
	dials := tc.dialers()
	dials[0] = func() (net.Conn, error) { return net.DialTimeout("tcp", evil, time.Second) }
	opts := quickOpts()
	opts.HedgeDelay = time.Minute
	for _, kind := range blameKinds {
		t.Run(kind.name, func(t *testing.T) {
			q, err := newQuorumKeyService(dials, opts, quickTimings)
			if err != nil {
				t.Fatalf("NewQuorumKeyService: %v", err)
			}
			defer q.Close()
			for i := 0; i < 4; i++ {
				kind.keys(t, q, i)
			}
			if got := q.Stats().BadPartials; got != 4 {
				t.Fatalf("BadPartials = %d, want one per request", got)
			}
		})
	}
}

// lockedBuffer collects a quorum client's log lines; the client logs from
// its fan-out goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestQuorumWideGroupBigIntFallback runs the quorum client on a group whose
// order does not fit one machine word: combination and verification are
// big.Int arithmetic at every width, and the keys must still be correct.
func TestQuorumWideGroupBigIntFallback(t *testing.T) {
	tc := startClusterBits(t, 128, 2, 3, 11)
	q, err := newQuorumKeyService(tc.dialers(), quickOpts(), quickTimings)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	defer q.Close()
	verifyIPKeys(t, q, [][]int64{{5, -7, 11, 0}, {-1, 2, -3, 4}})
}
