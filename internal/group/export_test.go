package group

// Helpers only tests need, kept out of the shipped package.

// PaperParams returns the 256-bit group matching the paper's evaluation
// setting.
func PaperParams() *Params {
	p, err := Embedded(PaperBits)
	if err != nil {
		panic(err) // unreachable: constant is known-good
	}
	return p
}
