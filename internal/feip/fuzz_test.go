package feip

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"cryptonn/internal/group"
)

// FuzzKeyDerive pins the limb arithmetic of keyDerive to its definition,
// Σ_i y_i·s_i mod Q summed in math/big, at every embedded width. sel picks
// the width, seed draws the secret — each scalar is Q − 1, which maximises
// every carry, or uniform in [0, Q) — and raw is read as up to 64
// little-endian int64 weights. The seeds put 0, ±1, MaxInt64 and MinInt64
// at 64, 256 and 512 bits, alone and side by side.
func FuzzKeyDerive(f *testing.F) {
	var widths []*group.Params
	for _, bits := range []int{64, 256, 512} {
		p, err := group.Embedded(bits)
		if err != nil {
			f.Fatal(err)
		}
		widths = append(widths, p)
	}
	encode := func(vals ...int64) []byte {
		raw := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(raw[8*i:], uint64(v))
		}
		return raw
	}
	extremes := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	for sel := range widths {
		f.Add(uint8(sel), int64(sel), encode(extremes...))
		for _, v := range extremes {
			f.Add(uint8(sel), int64(sel), encode(v, v, v, v))
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, seed int64, raw []byte) {
		p := widths[int(sel)%len(widths)]
		n := min(len(raw)/8, 64)
		if n == 0 {
			return
		}
		y := make([]int64, n)
		for i := range y {
			y[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		rng := rand.New(rand.NewSource(seed))
		qm1 := new(big.Int).Sub(p.Q, big.NewInt(1))
		msk := &MasterSecretKey{S: make([]*big.Int, n)}
		want := new(big.Int)
		var term big.Int
		for i := range msk.S {
			if rng.Intn(2) == 0 {
				msk.S[i] = qm1
			} else {
				msk.S[i] = new(big.Int).Rand(rng, p.Q)
			}
			want.Add(want, term.Mul(big.NewInt(y[i]), msk.S[i]))
		}
		want.Mod(want, p.Q)
		fk, err := KeyDerive(p, msk, y)
		if err != nil {
			t.Fatal(err)
		}
		if fk.K.Cmp(want) != 0 {
			t.Fatalf("%d-bit group, y=%v: key %v, want %v", p.Bits(), y, fk.K, want)
		}
	})
}
