package group

import (
	"fmt"
	"math/big"
)

// Embedded parameter sets.
//
// Safe-prime generation is expensive and non-deterministic, so tests,
// benchmarks and the example programs use these pre-generated groups. They
// were produced once by Generate (see gen/main.go) and validated; Embedded
// panics only on programmer error (a corrupted constant), never on user
// input.
//
// Security guidance mirrors the paper: the evaluation in §IV-B uses a
// 256-bit security parameter, i.e. Embedded256. The 64- and 128-bit groups
// exist purely to keep unit tests fast and MUST NOT be used for real data.
const (
	// TestBits is the modulus size of the group returned by TestParams.
	TestBits = 64
	// PaperBits is the security parameter used throughout the paper's
	// evaluation (§IV-B1: "the security parameter is set to 256-bit").
	PaperBits = 256
)

type embeddedHex struct{ p, q, g string }

var embedded = map[int]embeddedHex{
	64: {
		p: "f3957f0c4b481847",
		q: "79cabf8625a40c23",
		g: "14003753eeba198c",
	},
	128: {
		p: "e8f151ccadc3f8fc405f6bebb542e947",
		q: "7478a8e656e1fc7e202fb5f5daa174a3",
		g: "8f05cbc45865f437a893c0e8aa5be6b0",
	},
	192: {
		p: "db82ad5d0c84b7a70aed1906c0e31a23636e4842d669cd63",
		q: "6dc156ae86425bd385768c8360718d11b1b724216b34e6b1",
		g: "c7de42dd2bdb64d335fe82614a1f928f72ad91b2b29c74f5",
	},
	256: {
		p: "dac37913ac3d44a585886159df77d24c1f471cfa277039564858b407ee5d0ebf",
		q: "6d61bc89d61ea252c2c430acefbbe9260fa38e7d13b81cab242c5a03f72e875f",
		g: "59bf9cfe605375711b8538ec7fc03e6d8cb3c7b0580da02756a08fdd4d507dcd",
	},
	512: {
		p: "f03e1afe7bfae30044c11e9d148a1ef83041742814d93fc52609c4860466c93ec4a75954c9d748b5b65a2458ea807a21c92bdc01540ced06dae296d18d8081a7",
		q: "781f0d7f3dfd718022608f4e8a450f7c1820ba140a6c9fe29304e2430233649f6253acaa64eba45adb2d122c75403d10e495ee00aa0676836d714b68c6c040d3",
		g: "cb0a82b561d6f382d7aafc9fc8b4eade609ab5e8066af323d6ca098f3eca109ec8e1beca5fe99cc05b274cc3c952997363e20b26ea266bf4b5989d4f2ce3e29",
	},
}

// EmbeddedSizes lists the modulus bit lengths with pre-generated groups,
// in ascending order.
func EmbeddedSizes() []int { return []int{64, 128, 192, 256, 512} }

// Embedded returns the pre-generated group with the given modulus bit
// length. Available sizes are listed by EmbeddedSizes.
func Embedded(bits int) (*Params, error) {
	h, ok := embedded[bits]
	if !ok {
		return nil, fmt.Errorf("%w: no embedded group with %d-bit modulus (have %v)",
			ErrInvalidParams, bits, EmbeddedSizes())
	}
	return parseHex(h)
}

// TestParams returns the small embedded group used by fast unit tests.
// It must never protect real data.
func TestParams() *Params {
	p, err := Embedded(TestBits)
	if err != nil {
		panic(err) // unreachable: constant is known-good
	}
	return p
}

func parseHex(h embeddedHex) (*Params, error) {
	p, ok1 := new(big.Int).SetString(h.p, 16)
	q, ok2 := new(big.Int).SetString(h.q, 16)
	g, ok3 := new(big.Int).SetString(h.g, 16)
	if !ok1 || !ok2 || !ok3 {
		return nil, fmt.Errorf("%w: corrupted embedded constant", ErrInvalidParams)
	}
	return &Params{P: p, Q: q, G: g}, nil
}
