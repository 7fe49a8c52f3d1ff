package experiments

import (
	"fmt"
	"testing"
)

// TestICDSweepSmoke runs a miniature sweep end to end — the experiment
// cross-checks every secure result against plaintext internally.
func TestICDSweepSmoke(t *testing.T) {
	points, err := ICD(ICDConfig{
		Eta:       400,
		Labels:    60,
		Batch:     2,
		Densities: []float64{0.01, 0.1},
		TopK:      5,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points, want 2", len(points))
	}
	for _, p := range points {
		if p.TopKSolved == 0 || p.Nnz == 0 {
			t.Errorf("density %g: degenerate point %+v", p.Density, p)
		}
		if p.TopKSolved+p.TopKSkipped != uint64(60*2) {
			t.Errorf("density %g: dlog accounting %d+%d != %d",
				p.Density, p.TopKSolved, p.TopKSkipped, 60*2)
		}
	}
}

// BenchmarkICDEndToEnd measures the whole encrypted coding pipeline —
// sparse encryption, masked key derivation, top-k decryption — at a
// scaled-down ICD shape, sweeping density and k.
func BenchmarkICDEndToEnd(b *testing.B) {
	for _, d := range []float64{0.01, 0.05} {
		for _, k := range []int{1, 10} {
			b.Run(fmt.Sprintf("density=%g/k=%d", d, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := ICD(ICDConfig{
						Eta:       1000,
						Labels:    200,
						Batch:     2,
						Densities: []float64{d},
						TopK:      k,
						SkipDense: true,
						Seed:      1,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
