package wire

import (
	"context"
	"math/rand"
	"net"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/group"
)

// BenchmarkQuorumIPKeyBatch prices threshold robustness: one batched
// function-key request against a single networked authority versus a
// T=3-of-N=5 quorum (fan-out to five nodes, partial-key verification,
// Lagrange combination), both at the deployed parameter (group.PaperBits).
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

	b.Run("quorum-t3n5", func(b *testing.B) {
		tc := startClusterBits(b, group.PaperBits, 3, 5, 1)
		q, err := NewQuorumKeyService(tc.dialers(), QuorumOptions{})
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
	})
}
