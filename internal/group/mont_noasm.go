//go:build !amd64

package group

// useADX is false off amd64: mulMont4 is the only 4-limb kernel.
var useADX = false

// useLanes is false off amd64: PowRecoded raises one base at a time,
// MultiExpInt64RowsMontParts evaluates one column at a time, and MultiExp
// accumulates one base at a time.
var useLanes = false

func mulMont4ADX(dst, a, b, p *[4]uint64, n0 uint64) {
	panic("group: no assembly Montgomery kernel on this architecture")
}

func mulMontLanes(dst, a, b *laneElem, c *laneConsts) {
	panic("group: no lane Montgomery kernel on this architecture")
}

func sqrChainLanes(chain []laneElem, c *laneConsts) {
	panic("group: no lane Montgomery kernel on this architecture")
}

func mulPickLanes(acc, tab *laneElem, digits uint64, c *laneConsts) {
	panic("group: no lane Montgomery kernel on this architecture")
}
