package wire

import (
	"context"
	"math/big"
	"math/rand"
	"net"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/febo"
	"cryptonn/internal/group"
)

// BenchmarkQuorumIPKeyBatch prices threshold robustness: one batched
// function-key request against a single networked authority versus a
// T=3-of-N=5 quorum (fan-out to five nodes, partial-key verification,
// Lagrange combination), honest and with one corrupting primary, all at
// the deployed parameter (group.PaperBits).
// Closed-loop over loopback TCP; run with a fixed -benchtime round count for
// comparable samples.
func BenchmarkQuorumIPKeyBatch(b *testing.B) {
	const (
		eta   = 32
		batch = 128
	)
	ys := make([][]int64, batch)
	rng := rand.New(rand.NewSource(1))
	for v := range ys {
		ys[v] = make([]int64, eta)
		for i := range ys[v] {
			ys[v][i] = rng.Int63n(1000) - 500
		}
	}

	b.Run("single", func(b *testing.B) {
		params, err := group.Embedded(group.PaperBits)
		if err != nil {
			b.Fatal(err)
		}
		auth, err := authority.New(params, authority.AllowAll())
		if err != nil {
			b.Fatal(err)
		}
		srv, err := NewAuthorityServer(auth, nil)
		if err != nil {
			b.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go srv.Serve(ctx, l) //nolint:errcheck
		defer srv.Close()
		svc, err := DialKeyService(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		if _, err := svc.IPKeyBatch(ys); err != nil { // warm caches
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.IPKeyBatch(ys); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
	})

	// quorum-t3n5-corrupt prices the failure path: the first primary shifts
	// its partials, so every request fails the joint check, checks each
	// partial on its own, drops the liar and escalates to a standby.
	for _, corrupt := range []bool{false, true} {
		name := "quorum-t3n5"
		if corrupt {
			name += "-corrupt"
		}
		b.Run(name, func(b *testing.B) {
			tc := startClusterBits(b, group.PaperBits, 3, 5, 1)
			dials := tc.dialers()
			if corrupt {
				evil := startCorrupting(b, tc, 0)
				dials[0] = func() (net.Conn, error) { return net.Dial("tcp", evil) }
			}
			q, err := NewQuorumKeyService(dials, QuorumOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer q.Close()
			if _, err := q.IPKeyBatch(ys); err != nil { // warm caches
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.IPKeyBatch(ys); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
			if corrupt && q.Stats().BadPartials < uint64(b.N) {
				b.Fatalf("%d bad partials in %d requests", q.Stats().BadPartials, b.N)
			}
		})
	}
}

// BenchmarkQuorumBOKeyBatch prices the threshold FEBO key plane: one
// training step's worth of subtraction keys (80 commitments, febo.OpSub)
// from a T=3-of-N=5 quorum at the deployed parameter. Each node checks every
// commitment's membership, raises it to its share and proves the batch with
// one DLEQ proof; the client checks every partial key's membership and the
// proof, then combines. Closed-loop over loopback TCP.
func BenchmarkQuorumBOKeyBatch(b *testing.B) {
	const batch = 80
	tc := startClusterBits(b, group.PaperBits, 3, 5, 1)
	q, err := NewQuorumKeyService(tc.dialers(), QuorumOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	params, err := group.Embedded(group.PaperBits)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	cmts := make([]*big.Int, batch)
	ys := make([]int64, batch)
	for i := range cmts {
		cmts[i] = params.PowGInt64(rng.Int63())
		ys[i] = rng.Int63n(1000) - 500
	}
	if _, err := q.BOKeyBatch(cmts, febo.OpSub, ys); err != nil { // warm caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.BOKeyBatch(cmts, febo.OpSub, ys); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
}
