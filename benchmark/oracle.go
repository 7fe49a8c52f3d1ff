package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"cryptonn/internal/dlog"
	"cryptonn/internal/nn"
)

// Plaintext oracles. Every secure result the benchmark sees is compared
// with one of these; a mismatch is a failed operation.

// matMulInt is the integer product W·X (w: r×n, x: n×c).
func matMulInt(w, x [][]int64) [][]int64 {
	out := make([][]int64, len(w))
	cols := len(x[0])
	for i, row := range w {
		out[i] = make([]int64, cols)
		for t, wv := range row {
			if wv == 0 {
				continue
			}
			for j, xv := range x[t] {
				out[i][j] += wv * xv
			}
		}
	}
	return out
}

// subInt is the element-wise difference Y − P.
func subInt(y, p [][]int64) [][]int64 {
	out := make([][]int64, len(y))
	for i := range y {
		out[i] = make([]int64, len(y[i]))
		for j := range y[i] {
			out[i][j] = y[i][j] - p[i][j]
		}
	}
	return out
}

// matMulT2Int is the integer product D·Xᵀ (d: r×c, x: n×c), the first-layer
// weight gradient of secure back-propagation.
func matMulT2Int(d, x [][]int64) [][]int64 {
	out := make([][]int64, len(d))
	for i, drow := range d {
		out[i] = make([]int64, len(x))
		for k, xrow := range x {
			var acc int64
			for j, dv := range drow {
				acc += dv * xrow[j]
			}
			out[i][k] = acc
		}
	}
	return out
}

func dotInt(a, b []int64) int64 {
	var acc int64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}

func equalInt(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// topKInt ranks logits with the library's tie rule — value descending,
// then index ascending — and returns the first k.
func topKInt(logits []int64, k int) []dlog.TopKHit {
	hits := make([]dlog.TopKHit, len(logits))
	for i, v := range logits {
		hits[i] = dlog.TopKHit{Index: i, Value: v}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Value != hits[b].Value {
			return hits[a].Value > hits[b].Value
		}
		return hits[a].Index < hits[b].Index
	})
	return hits[:min(k, len(hits))]
}

func equalHits(a, b []dlog.TopKHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// weightHash fingerprints every trainable parameter bit for bit.
func weightHash(m *nn.Model) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range m.Params() {
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// sameWeights reports whether two models hold bit-identical parameters.
func sameWeights(a, b *nn.Model) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		da, db := pa[i].Value.Data, pb[i].Value.Data
		if len(da) != len(db) {
			return false
		}
		for j := range da {
			if math.Float64bits(da[j]) != math.Float64bits(db[j]) {
				return false
			}
		}
	}
	return true
}

// copyWeights overwrites dst's parameters with src's.
func copyWeights(dst, src *nn.Model) {
	ps, pd := src.Params(), dst.Params()
	for i := range ps {
		copy(pd[i].Value.Data, ps[i].Value.Data)
	}
}
