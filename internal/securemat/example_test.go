package securemat_test

import (
	"fmt"

	"cryptonn/internal/authority"
	"cryptonn/internal/dlog"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
)

// ExampleEngine walks Algorithm 1 end to end through the session API: a
// client-side engine encrypts a matrix (no solver — clients never
// decrypt), the server-side engine derives the dot-product keys from the
// authority and evaluates W·X over ciphertexts only.
func ExampleEngine() {
	params := group.TestParams()
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		panic(err)
	}

	// The client session: encrypt X column- and element-wise.
	client, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		panic(err)
	}
	x := [][]int64{
		{1, 2, 3},
		{4, 5, 6},
	}
	encX, err := client.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		panic(err)
	}

	// The server session: a bounded discrete-log solver sized for the
	// largest possible result, and the authority connection for keys.
	solver, err := dlog.NewSolver(params, 100)
	if err != nil {
		panic(err)
	}
	server, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		panic(err)
	}
	server = server.WithSolver(solver)
	w := [][]int64{
		{1, 1},
		{2, -1},
	}
	// Dot derives (and caches) the keys for W, then recovers W·X from
	// the ciphertexts; the server never sees X.
	z, err := server.Dot(encX, w, securemat.ComputeOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(z)
	// Output: [[5 7 9] [-2 -1 0]]
}
