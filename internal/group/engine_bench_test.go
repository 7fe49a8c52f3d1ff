package group

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// The engine for bases seen once, the calibrated keyCombGeometry of the
// per-key combs and the window rule of the many-rows multi-exponentiation
// (rowsWindow) are justified by the sweeps below, over the unexported
// constructors. None is in a CI regex beyond the bench-smoke
// rot check; rerun them by hand when revisiting a constant (new hardware, a
// new workload shape) and update the rows quoted next to it.

// BenchmarkPrecompute prices every long-lived table a process derives at
// the paper's parameter, which is why none of them is persisted or shared
// (doc.go quotes the medians): the generator's comb and dense slab, built
// once per Params, and the per-key combs of one FEIP master public key at
// the benchmark's three widths (train_mlp's 196, serve_dense's 784,
// serve_topk's 10000), built once per key by whoever encrypts under it.
func BenchmarkPrecompute(b *testing.B) {
	b.Run("generator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PaperParams().generator()
		}
	})
	p := PaperParams()
	rng := rand.New(rand.NewSource(19))
	for _, eta := range []int{196, 784, 10000} {
		hs := make([]*big.Int, eta)
		for i := range hs {
			hs[i] = p.PowG(new(big.Int).Rand(rng, p.Q))
		}
		b.Run(fmt.Sprintf("keycombs/eta=%d", eta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.NewFixedBaseCombs(hs)
			}
		})
	}
}

// BenchmarkEphemeralWindow prices one fresh base raised to n full-width
// exponents at 256 bits — the FEIP denominators ct_0^{sk_i} of one
// ciphertext — end to end: the engine's per-base work, n sign-split results,
// the shared inversion and the n folding multiplications. Recoding is per key
// set, not per base, and happens before the timer. n = 2 is train_cnn's two
// filter keys per window, 6 LeNet-5 C1's, 8 train_mlp's hidden units, 32
// serve_dense's and 512 serve_topk's label rows. "shared" is the engine
// (ephemeral.go quotes these rows) and "ladder" the alternative without
// precomputation: n windowed ExpMontScratch ladders on one reused slab.
//
// At 2 and 8 exponents, the "bases=m" rows are the shared row for a run of
// m fresh bases raised in one PowRecoded call, with the lane kernel as
// selected ("lanes") and deselected ("scalar"); us/base is the figure to
// compare. A run of one base takes the scalar body either way, which is why
// PowRecoded hands the lanes runs of two bases or more (group/doc.go quotes
// these rows).
func BenchmarkEphemeralWindow(b *testing.B) {
	p := PaperParams()
	mc := p.Mont()
	k := mc.Limbs()
	rng := rand.New(rand.NewSource(77))
	// A handful of bases cycled through, so no iteration sees a warm chain.
	bases := make([]*big.Int, 16)
	for i := range bases {
		bases[i] = p.PowG(new(big.Int).Rand(rng, p.Q))
	}
	for _, n := range []int{1, 2, 6, 8, 16, 32, 512} {
		exps := make([]*big.Int, n)
		for i := range exps {
			exps[i] = new(big.Int).Rand(rng, p.Q)
		}
		pos, neg := make([]uint64, n*k), make([]uint64, n*k)
		b.Run(fmt.Sprintf("exps=%d/ladder", n), func(b *testing.B) {
			bm := mc.Elem()
			var tab []uint64
			for i := 0; i < b.N; i++ {
				mc.ToMont(bm, bases[i%len(bases)])
				for j, e := range exps {
					tab = mc.ExpMontScratch(pos[j*k:(j+1)*k], bm, e, tab)
				}
			}
		})
		b.Run(fmt.Sprintf("exps=%d/shared", n), func(b *testing.B) {
			x := p.RecodeSigned(exps, nil)
			var inv []uint64
			for i := 0; i < b.N; i++ {
				x.PowRecoded(pos, neg, bases[i%len(bases):][:1])
				var err error
				if inv, err = mc.BatchInvMont(neg, inv); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					mc.MulMont(pos[j*k:(j+1)*k], pos[j*k:(j+1)*k], neg[j*k:(j+1)*k])
				}
			}
		})
		if n != 2 && n != 8 {
			continue
		}
		for _, m := range []int{1, 2, 8, 16} {
			pos, neg := make([]uint64, m*n*k), make([]uint64, m*n*k)
			for _, kernel := range []string{"lanes", "scalar"} {
				b.Run(fmt.Sprintf("exps=%d/bases=%d/%s", n, m, kernel), func(b *testing.B) {
					x := p.RecodeSigned(exps, nil)
					run := func() {
						var inv []uint64
						for i := 0; i < b.N; i++ {
							at := i * m % len(bases)
							x.PowRecoded(pos, neg, bases[at:at+m])
							var err error
							if inv, err = mc.BatchInvMont(neg, inv); err != nil {
								b.Fatal(err)
							}
							for j := 0; j < m*n; j++ {
								mc.MulMont(pos[j*k:(j+1)*k], pos[j*k:(j+1)*k], neg[j*k:(j+1)*k])
							}
						}
					}
					if kernel == "lanes" {
						skipWithoutLanes(b)
						run()
					} else {
						withoutLanes(run)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m)/1e3, "us/base")
				})
			}
		}
	}
}

// BenchmarkKeyCombGeometry sweeps per-key comb geometries over the inner
// loop of a full η=784 feip.Encrypt — one Gather of the shared nonce, then
// one PowMontGathered per h_i — the workload keyCombGeometry is tuned for.
// The regimes it exposes: narrow groups are operation-bound (taller teeth
// win), wide groups are cache-bound across the 784 cold per-key slabs
// (compact slabs win).
func BenchmarkKeyCombGeometry(b *testing.B) {
	const eta = 784
	for _, bits := range []int{64, 256} {
		p, err := Embedded(bits)
		if err != nil {
			b.Fatal(err)
		}
		mc := p.Mont()
		rng := rand.New(rand.NewSource(int64(bits)))
		hs := make([]*big.Int, eta)
		for i := range hs {
			hs[i] = p.PowG(new(big.Int).Rand(rng, p.Q))
		}
		// A fresh nonce per encryption: cycling exponents keeps an iteration
		// from finding the previous one's table entries still in cache.
		els := make([][]uint64, 64)
		for i := range els {
			els[i] = p.ScalarLimbs(new(big.Int).Rand(rng, p.Q), nil)
		}
		dst := mc.Elem()
		for _, g := range [][2]int{{8, 4}, {8, 2}, {8, 1}, {6, 2}, {6, 1}, {5, 1}, {4, 2}, {4, 1}} {
			b.Run(fmt.Sprintf("bits=%d/h=%d/v=%d", bits, g[0], g[1]), func(b *testing.B) {
				combs := make([]*FixedBaseComb, eta)
				for i, h := range hs {
					combs[i] = p.newFixedBaseComb(h, g[0], g[1])
				}
				var us []uint32
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					us = combs[0].Gather(els[i%len(els)], us)
					for _, c := range combs {
						c.PowMontGathered(dst, us)
					}
				}
			})
		}
	}
}

// BenchmarkMultiExpRows is the sweep behind rowsWindow: one FEIP column's
// numerators — every row of the weight matrix over one ciphertext's carried
// coordinates — at the shapes the benchmark's workloads produce, 256 bits.
// Run it with -cpu 1 -benchmem. The forward shapes come at two magnitudes,
// the workloads' own (Xavier weights on the fixed-point grid: ±17 at
// 196→8, ±8 at 784→32) and the ±400 weight clamp the benchmark's atoms draw
// from; the gradient shape is 8 samples × 8 units of 17-bit dZ, the sparse
// one serve_topk's 100 carried coordinates of η = 10000 under 512 label rows
// of ±100, read through the support out of the row-major 512 × 10000 matrix.
// Each op is one column; four ciphertexts are cycled so none finds its
// predecessor's tables.
//
// "per-row" is the same column through the one-row wrapper, once per row of
// W, gathering the row on the support first — what the column evaluator did
// before the rows shared a call. "rule" is the entry point; "w=N" pins the
// digit width.
//
// The "cols=m" rows are the entry point over m columns on one identity
// support in one call, with the lane kernel as selected ("lanes") and
// deselected ("scalar"), at the shapes securemat hands it runs of columns:
// train_cnn's forward (9 window coordinates under 2 filters of ±47, Xavier
// on the fixed-point grid) and gradient (196 positions under 2 rows of
// 17-bit dZ), train_mlp's gradient (8 samples under 8 rows of 17-bit dZ)
// and the paper's forward (784 pixels under 32 units of ±8). us/col is the
// figure to compare. A call of one column takes the scalar body either way,
// which is why the lanes take runs of two columns or more (group/doc.go
// quotes these rows).
func BenchmarkMultiExpRows(b *testing.B) {
	benchmarkMultiExpRowsColumns(b)
	p := PaperParams()
	mc := p.Mont()
	k := mc.Limbs()
	rng := rand.New(rand.NewSource(23))
	shapes := []struct {
		name               string
		eta, carried, rows int
		mag                int64
	}{
		{"eta=196/rows=8/mag=17", 196, 196, 8, 17},
		{"eta=196/rows=8/mag=400", 196, 196, 8, 400},
		{"eta=784/rows=32/mag=8", 784, 784, 32, 8},
		{"eta=784/rows=32/mag=400", 784, 784, 32, 400},
		{"eta=8/rows=8/mag=65535", 8, 8, 8, 65535},
		{"eta=10000/carried=100/rows=512/mag=100", 10000, 100, 512, 100},
	}
	for _, s := range shapes {
		rows := make([][]int64, s.rows)
		for i := range rows {
			rows[i] = make([]int64, s.eta)
			for j := range rows[i] {
				rows[i][j] = rng.Int63n(2*s.mag+1) - s.mag
			}
		}
		type column struct {
			coords  []*big.Int
			support []int
		}
		cols := make([]column, 4)
		for c := range cols {
			cols[c].support = rng.Perm(s.eta)[:s.carried]
			sort.Ints(cols[c].support)
			cols[c].coords = make([]*big.Int, s.carried)
			for t := range cols[c].coords {
				cols[c].coords[t] = p.PowG(new(big.Int).Rand(rng, p.Q))
			}
		}
		pos, neg := make([]uint64, s.rows*k), make([]uint64, s.rows*k)
		b.Run(s.name+"/per-row", func(b *testing.B) {
			positions := make([]int, s.carried)
			for t := range positions {
				positions[t] = t
			}
			ys := make([]int64, s.carried)
			var scratch []uint64
			for i := 0; i < b.N; i++ {
				col := &cols[i%len(cols)]
				for r, row := range rows {
					for t, at := range col.support {
						ys[t] = row[at]
					}
					scratch = p.MultiExpInt64SparseMontParts(pos[r*k:(r+1)*k], neg[r*k:(r+1)*k], col.coords, positions, ys, scratch)
				}
			}
		})
		run := func(name string, window func(int, int) int) {
			b.Run(s.name+"/"+name, func(b *testing.B) {
				var scratch []uint64
				for i := 0; i < b.N; i++ {
					col := &cols[i%len(cols)]
					scratch = p.multiExpRows(pos, neg, [][]*big.Int{col.coords}, col.support, rows, scratch, window)
				}
			})
		}
		run("rule", rowsWindow)
		for w := 2; w <= rowsMaxWindow; w++ {
			run(fmt.Sprintf("w=%d", w), func(int, int) int { return w })
		}
	}
}

// benchmarkMultiExpRowsColumns runs BenchmarkMultiExpRows' cols=m rows.
func benchmarkMultiExpRowsColumns(b *testing.B) {
	p := PaperParams()
	k := p.Mont().Limbs()
	rng := rand.New(rand.NewSource(29))
	for _, s := range []struct {
		name      string
		eta, rows int
		mag       int64
	}{
		{"eta=9/rows=2/mag=47", 9, 2, 47},
		{"eta=196/rows=2/mag=65535", 196, 2, 65535},
		{"eta=8/rows=8/mag=65535", 8, 8, 65535},
		{"eta=784/rows=32/mag=8", 784, 32, 8},
	} {
		rows := make([][]int64, s.rows)
		for i := range rows {
			rows[i] = make([]int64, s.eta)
			for j := range rows[i] {
				rows[i][j] = rng.Int63n(2*s.mag+1) - s.mag
			}
		}
		support := make([]int, s.eta)
		for t := range support {
			support[t] = t
		}
		// Sixteen ciphertexts cycled, so no call finds its predecessor's
		// tables.
		cols := make([][]*big.Int, 16)
		for c := range cols {
			cols[c] = make([]*big.Int, s.eta)
			for t := range cols[c] {
				cols[c][t] = p.PowG(new(big.Int).Rand(rng, p.Q))
			}
		}
		for _, m := range []int{1, 2, 4, 8} {
			pos, neg := make([]uint64, m*s.rows*k), make([]uint64, m*s.rows*k)
			for _, kernel := range []string{"lanes", "scalar"} {
				b.Run(fmt.Sprintf("%s/cols=%d/%s", s.name, m, kernel), func(b *testing.B) {
					run := func() {
						var scratch []uint64
						for i := 0; i < b.N; i++ {
							at := i * m % len(cols)
							scratch = p.MultiExpInt64RowsMontParts(pos, neg, cols[at:at+m], support, rows, scratch)
						}
					}
					if kernel == "lanes" {
						skipWithoutLanes(b)
						run()
					} else {
						withoutLanes(run)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m)/1e3, "us/col")
				})
			}
		}
	}
}
