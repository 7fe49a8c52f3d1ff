package febo_test

import (
	"fmt"
	"testing"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/group"
)

// FEBO primitive costs: these dominate the paper's Fig. 3/4 panels (one
// Encrypt + one KeyDerive + one Decrypt per matrix element). Every
// benchmark runs at the test width and at the paper's 256 bits, and the
// key and decryption benchmarks run every op: × and ÷ take a second
// exponentiation, and × the larger dlog window. KeyDerive is a key batch of
// one (febo.RaiseCommitments, then CompleteKey), so it pays the batch's
// recoding, scratch and inversion for one commitment.

var benchOps = []febo.Op{febo.OpAdd, febo.OpSub, febo.OpMul, febo.OpDiv}

// benchX and benchY are the operands: benchX/benchY is exact, so ÷
// decrypts, and |benchX·benchY| bounds the solver.
const benchX, benchY = 90, 45

// benchWidths runs fn once per group width, named by its bits.
func benchWidths(b *testing.B, fn func(b *testing.B, pk *febo.PublicKey, sk *febo.SecretKey, params *group.Params)) {
	for _, bits := range []int{group.TestBits, group.PaperBits} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			params, err := group.Embedded(bits)
			if err != nil {
				b.Fatal(err)
			}
			pk, sk, err := febo.Setup(params, nil)
			if err != nil {
				b.Fatal(err)
			}
			fn(b, pk, sk, params)
		})
	}
}

// benchOpsRun runs fn once per op, on one ciphertext of benchX.
func benchOpsRun(b *testing.B, pk *febo.PublicKey, fn func(b *testing.B, op febo.Op, ct *febo.Ciphertext)) {
	ct, err := febo.Encrypt(pk, benchX, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, op := range benchOps {
		b.Run(op.String(), func(b *testing.B) {
			b.ReportAllocs()
			fn(b, op, ct)
		})
	}
}

func BenchmarkEncrypt(b *testing.B) {
	benchWidths(b, func(b *testing.B, pk *febo.PublicKey, _ *febo.SecretKey, _ *group.Params) {
		pk.Precompute()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := febo.Encrypt(pk, benchX, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKeyDerive(b *testing.B) {
	benchWidths(b, func(b *testing.B, pk *febo.PublicKey, sk *febo.SecretKey, params *group.Params) {
		benchOpsRun(b, pk, func(b *testing.B, op febo.Op, ct *febo.Ciphertext) {
			for i := 0; i < b.N; i++ {
				if _, err := febo.KeyDerive(params, sk, ct.Cmt, op, benchY); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkCompleteKey prices the public half a threshold client applies
// to the combined cmt^s.
func BenchmarkCompleteKey(b *testing.B) {
	benchWidths(b, func(b *testing.B, pk *febo.PublicKey, sk *febo.SecretKey, params *group.Params) {
		benchOpsRun(b, pk, func(b *testing.B, op febo.Op, ct *febo.Ciphertext) {
			cmtS := params.Exp(ct.Cmt, sk.S)
			for i := 0; i < b.N; i++ {
				if _, err := febo.CompleteKey(params, cmtS, op, benchY); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func BenchmarkDecrypt(b *testing.B) {
	benchWidths(b, func(b *testing.B, pk *febo.PublicKey, sk *febo.SecretKey, params *group.Params) {
		// One solver serves every op, so the benchmark isolates the algebra.
		solver, err := dlog.NewSolver(params, benchX*benchY+1)
		if err != nil {
			b.Fatal(err)
		}
		benchOpsRun(b, pk, func(b *testing.B, op febo.Op, ct *febo.Ciphertext) {
			fk, err := febo.KeyDerive(params, sk, ct.Cmt, op, benchY)
			if err != nil {
				b.Fatal(err)
			}
			want, err := op.Apply(benchX, benchY)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got, err := febo.Decrypt(pk, fk, ct, op, benchY, solver); err != nil || got != want {
					b.Fatalf("Decrypt = %d, %v; want %d", got, err, want)
				}
			}
		})
	})
}
