package securemat_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
	"cryptonn/internal/wire"
)

// paperDot is a dense secure product at the paper's 256-bit parameter, ready
// to evaluate: eta-dimensional ciphertexts, one per column, against a
// rows × eta weight matrix with entries in ±mag.
type paperDot struct {
	eng   *securemat.Engine
	x, w  [][]int64
	enc   *securemat.EncryptedMatrix
	keys  []*feip.FunctionKey
	lanes bool // group's lane kernel serves the group
}

func newPaperDot(b *testing.B, eta, rows, cols int, mag int64) paperDot {
	b.Helper()
	params, err := group.Embedded(group.PaperBits)
	if err != nil {
		b.Fatal(err)
	}
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		b.Fatal(err)
	}
	solver, err := dlog.NewSolver(params, int64(eta)*mag*100+1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	eng = eng.WithSolver(solver)
	rng := rand.New(rand.NewSource(5))
	d := paperDot{eng: eng, x: randMatrix(rng, eta, cols, -100, 100), w: randMatrix(rng, rows, eta, -mag, mag), lanes: params.Mont().Lanes()}
	if d.enc, err = eng.Encrypt(d.x, securemat.EncryptOptions{SkipElems: true}); err != nil {
		b.Fatal(err)
	}
	if d.keys, err = eng.DotKeys(d.w); err != nil {
		b.Fatal(err)
	}
	return d
}

// compute runs the product's evaluation at each worker count, a par=N row
// each.
func (d paperDot) compute(b *testing.B, pars ...int) {
	for _, par := range pars {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.eng.SecureDot(d.enc, d.keys, d.w,
					securemat.ComputeOptions{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Algorithm 1 stage costs at the secure-matrix level, at the paper's 256-bit
// parameter on the serving benchmark's shape: η = 784 against a 32-row
// hidden layer, at coalesced widths 1, 3, 4 and 8, with group's lane kernel
// as selected (lanes; skipped on CPUs without it) and deselected (scalar).
// The seq/par pairs are the paper's "P" comparison. On the lanes a product
// of up to eight columns is one chunk, one lane call per phase, so a second
// worker has nothing to take; on the scalar body a column is the unit of
// work. ms per product (2-vCPU box with AVX-512 IFMA, -benchtime 40x,
// median of seven runs; runs of one row spread by up to a third):
//
//	columns                 1      3      4      8
//	scalar, one worker      2.32   9.01   11.2   20.4
//	scalar, two workers     2.35   5.26   6.26   12.9
//	lanes, one worker       2.17   3.00   3.25   4.43
//	lanes, two workers      2.41   2.90   3.98   3.78
//
// A lone column runs on the scalar kernel either way. Cutting a column
// finer was built and measured (it took one column to 0.66×) and lost on
// serve_dense end to end (ROADMAP item 3).
func BenchmarkSecureDotStage(b *testing.B) {
	for _, cols := range []int{1, 3, 4, 8} {
		d := newPaperDot(b, 784, 32, cols, 400)
		if cols == 4 {
			b.Run("encrypt", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := d.eng.Encrypt(d.x, securemat.EncryptOptions{SkipElems: true}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("keyderive", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := d.eng.DotKeysUncached(d.w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		for _, kernel := range []string{"lanes", "scalar"} {
			b.Run(fmt.Sprintf("compute/784x32x%d/%s", cols, kernel), func(b *testing.B) {
				if kernel == "lanes" && !d.lanes {
					b.Skip("no lane kernel: the CPU lacks AVX512F or AVX512_IFMA, or the OS has not enabled the ZMM state")
				}
				if kernel == "scalar" {
					securemat.DeselectLanes(b)
				}
				d.compute(b, 1, 2, 4)
			})
		}
	}
}

// BenchmarkBatchedDecrypt measures the chunked batched-decryption pipeline
// (per-worker scratch + Montgomery's-trick denominator inversion) over the
// two secure products of a 196-8-10 batch-8 training step at 256 bits,
// across worker counts — the paper's parallel "P" curves at the securemat
// level: the forward product (η = 196, 8 rows, 8 columns) and the gradient's
// shape (η = 8, 8 rows, 196 columns), where the denominators are most of the
// work.
func BenchmarkBatchedDecrypt(b *testing.B) {
	for _, shape := range []struct{ eta, rows, cols int }{{196, 8, 8}, {8, 8, 196}} {
		d := newPaperDot(b, shape.eta, shape.rows, shape.cols, 400)
		b.Run(fmt.Sprintf("%dx%dx%d", shape.eta, shape.rows, shape.cols), func(b *testing.B) { d.compute(b, 1, 2, 4) })
	}
}

// elementwiseBenchOps are the element-wise benchmarks' ops and row names.
var elementwiseBenchOps = []struct {
	name string
	op   febo.Op
}{{"elementwise-add", febo.OpAdd}, {"elementwise-mul", febo.OpMul}}

func BenchmarkSecureElementwiseStage(b *testing.B) {
	const size = 100
	_, eng := newFixture(b, 101*101)
	rng := rand.New(rand.NewSource(6))
	x := randMatrix(rng, 1, size, -100, 100)
	y := randMatrix(rng, 1, size, -100, 100)
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range elementwiseBenchOps {
		keys, err := eng.ElementwiseKeys(enc, c.op, y)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.SecureElementwise(enc, keys, c.op, y,
					securemat.ComputeOptions{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSecureElementwise measures the full in-domain element-wise
// pipeline at η-scale (a 28×28 matrix, the paper's MNIST feature count)
// across worker counts — the counterpart of BenchmarkBatchedDecrypt for
// the FEBO path. allocs/op is the headline: the Montgomery pipeline keeps
// per-cell numerators out of big.Int entirely.
func BenchmarkSecureElementwise(b *testing.B) {
	const (
		rows = 28
		cols = 28
	)
	_, eng := newFixture(b, 101*101)
	rng := rand.New(rand.NewSource(23))
	x := randMatrix(rng, rows, cols, -100, 100)
	y := randMatrix(rng, rows, cols, -100, 100)
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range elementwiseBenchOps {
		keys, err := eng.ElementwiseKeys(enc, c.op, y)
		if err != nil {
			b.Fatal(err)
		}
		for _, par := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/par=%d", c.name, par), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := eng.SecureElementwise(enc, keys, c.op, y,
						securemat.ComputeOptions{Parallelism: par}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineDotKeyCache pins the session key cache: a hit must cost
// one matrix comparison, orders of magnitude under the derivation an
// uncached call pays every time.
func BenchmarkEngineDotKeyCache(b *testing.B) {
	const rows, inner = 8, 64
	auth, _ := newFixture(b, 1)
	rng := rand.New(rand.NewSource(29))
	w := randMatrix(rng, rows, inner, -9, 9)
	b.Run("hit", func(b *testing.B) {
		eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.DotKeys(w); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.DotKeys(w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.DotKeysUncached(w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncryptParallel measures the chunked parallel client-side
// pre-processing (columns + dual rows + elements) across GOMAXPROCS, the
// one control of the encryption loops' worker count — the encryption-side
// counterpart of BenchmarkBatchedDecrypt's "P" curves.
func BenchmarkEncryptParallel(b *testing.B) {
	const (
		rows = 32
		cols = 32
	)
	_, eng := newFixture(b, int64(rows)*100+1)
	rng := rand.New(rand.NewSource(17))
	x := randMatrix(rng, rows, cols, -9, 9)
	// Warm the key-service tables so every variant measures steady state.
	if _, err := eng.Encrypt(x, securemat.EncryptOptions{WithRows: true}); err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Encrypt(x, securemat.EncryptOptions{WithRows: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparseKeysInFlight is the evidence beside sparseKeysInFlight: the
// masked keys of one sparse sample of the extreme multi-label head (512 label
// rows on a 100-coordinate support of η = 10 000, 256 bits) from an authority
// behind loopback TCP, with 1, 4, 16 and 64 of the 512 requests outstanding.
// Every window sends the same 512 frames. Both ends of the connection count
// their Read and Write calls, reported as syscalls/exchange: a request and
// its reply each cost the writer one Write and the reader a Read for the
// header and one for the body when frames do not share them.
func BenchmarkSparseKeysInFlight(b *testing.B) {
	const eta, labels, nnz = 10_000, 512, 100
	params, err := group.Embedded(group.PaperBits)
	if err != nil {
		b.Fatal(err)
	}
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := wire.NewAuthorityServer(auth, nil)
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var calls atomic.Uint64
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ctx, countingListener{l, &calls})
	}()
	defer func() {
		cancel()
		<-served
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	ks := wire.NewRemoteKeyService(countingConn{conn, &calls})
	defer ks.Close()
	eng, err := securemat.NewEngine(ks, securemat.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	x := make([][]int64, eta)
	for i := range x {
		x[i] = []int64{0}
	}
	for _, i := range rng.Perm(eta)[:nnz] {
		x[i][0] = 1 + rng.Int63n(100)
	}
	enc, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
	if err != nil {
		b.Fatal(err)
	}
	w := randMatrix(rng, labels, eta, -100, 100)
	for _, window := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			from := calls.Load()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SparseDotKeysInFlight(enc, w, window); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(calls.Load()-from)/float64(b.N*labels), "syscalls/exchange")
		})
	}
}

// countingConn counts the Read and Write calls made on a connection.
type countingConn struct {
	net.Conn
	calls *atomic.Uint64
}

func (c countingConn) Read(p []byte) (int, error) {
	c.calls.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.calls.Add(1)
	return c.Conn.Write(p)
}

// countingListener hands out countingConns.
type countingListener struct {
	net.Listener
	calls *atomic.Uint64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.calls}, nil
}
