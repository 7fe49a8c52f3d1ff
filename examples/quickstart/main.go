// Quickstart: the CryptoNN crypto stack in five minutes.
//
// This example walks the three layers the framework is built from, bottom
// up, entirely in-process:
//
//  1. FEIP — functional encryption for inner products (Abdalla et al.):
//     encrypt a vector x, derive a key for a weight vector y, and recover
//     ⟨x, y⟩ from the ciphertext without ever decrypting x itself.
//  2. FEBO — the paper's functional encryption for basic arithmetic:
//     encrypt x, derive a key for (op, y), recover x op y.
//  3. Secure matrix computation (Algorithm 1): dot-products and
//     element-wise arithmetic over encrypted matrices — the exact
//     primitive the neural-network training loop consumes.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cryptonn/internal/authority"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The trusted authority of Fig. 1: it owns the master secret keys and
	// hands out function-derived keys. group.TestParams() is an embedded
	// 64-bit DDH group — fast for demos; production uses 256-bit
	// (group.Embedded(group.PaperBits)).
	params := group.TestParams()
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		return err
	}

	// A bounded discrete-log solver: every functional decryption ends
	// with recovering an exponent via baby-step giant-step, so the caller
	// must know an upper bound on the plaintext result.
	solver, err := dlog.NewSolver(params, 1_000_000)
	if err != nil {
		return err
	}

	fmt.Println("== 1. FEIP: inner products over encrypted vectors ==")
	x := []int64{3, -1, 4, 1, -5} // the client's private vector
	y := []int64{2, 7, 1, -8, 2}  // the server's weights (public to the server)

	mpk, err := auth.FEIPPublic(len(x))
	if err != nil {
		return err
	}
	ct, err := feip.Encrypt(mpk, x, nil) // client side
	if err != nil {
		return err
	}
	fk, err := auth.IPKey(y) // authority derives the key for y
	if err != nil {
		return err
	}
	got, err := feip.Decrypt(mpk, ct, fk, y, solver) // server side
	if err != nil {
		return err
	}
	want := int64(0)
	for i := range x {
		want += x[i] * y[i]
	}
	fmt.Printf("   ⟨x, y⟩ recovered from ciphertext: %d (plaintext check: %d)\n\n", got, want)

	fmt.Println("== 2. FEBO: basic arithmetic over an encrypted operand ==")
	bopk, err := auth.FEBOPublic()
	if err != nil {
		return err
	}
	secret := int64(123)
	bct, err := febo.Encrypt(bopk, secret, nil)
	if err != nil {
		return err
	}
	for _, op := range []febo.Op{febo.OpAdd, febo.OpSub, febo.OpMul} {
		const operand = 45
		key, err := auth.BOKey(bct.Cmt, op, operand)
		if err != nil {
			return err
		}
		res, err := febo.Decrypt(bopk, key, bct, op, operand, solver)
		if err != nil {
			return err
		}
		fmt.Printf("   enc(123) %s 45 = %d\n", op, res)
	}
	fmt.Println()

	fmt.Println("== 3. Secure matrix computation (Algorithm 1) ==")
	// A secure compute session: the Engine owns the key-service handle,
	// the solver and cached public keys, so neither side re-threads them
	// through every call.
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		return err
	}
	eng = eng.WithSolver(solver)
	// The client's private matrix X (features × samples)...
	X := [][]int64{
		{1, 2, 3},
		{4, 5, 6},
	}
	// ...and the server's weight matrix W (units × features).
	W := [][]int64{
		{1, 1},
		{2, -1},
	}
	encX, err := eng.Encrypt(X, securemat.EncryptOptions{})
	if err != nil {
		return err
	}
	Z, err := eng.Dot(encX, W, securemat.ComputeOptions{})
	if err != nil {
		return err
	}
	fmt.Println("   W·X over encrypted X:")
	for _, row := range Z {
		fmt.Printf("   %v\n", row)
	}

	// Element-wise subtraction (the P − Y step of secure evaluation).
	P := [][]int64{
		{0, 1, 0},
		{1, 0, 1},
	}
	D, err := eng.Elementwise(encX, febo.OpSub, P, securemat.ComputeOptions{})
	if err != nil {
		return err
	}
	fmt.Println("   X − P over encrypted X:")
	for _, row := range D {
		fmt.Printf("   %v\n", row)
	}

	fmt.Println("\nThe server computed every result above without seeing x or X.")
	return nil
}
