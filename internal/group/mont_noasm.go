//go:build !amd64

package group

// useADX is false off amd64: mulMont4 is the only 4-limb kernel.
var useADX = false

func mulMont4ADX(dst, a, b, p *[4]uint64, n0 uint64) {
	panic("group: no assembly Montgomery kernel on this architecture")
}
