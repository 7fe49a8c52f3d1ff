package group

// useLanes selects the 8-lane IFMA kernel for PowRecoded's runs of two or
// more bases, MultiExpInt64RowsMontParts' runs of two or more columns and
// MultiExp's products of strausLaneMin or more bases. It
// is read from CPUID and XGETBV once, at package initialisation; without it
// every base and column runs on the scalar kernel. The tests of securemat
// and core reach it by go:linkname to compare the two kernels end to end,
// so it keeps this name on every architecture.
var useLanes = cpuHasIFMA()

// cpuHasIFMA reports whether the CPU implements AVX512F and AVX512_IFMA
// and the OS has enabled the opmask and ZMM register state.
func cpuHasIFMA() bool

// mulMontLanes is eight Montgomery products dst = a·b·2^-260 mod p, one
// per lane, each below 2p (lanes_amd64.s).
//
//go:noescape
func mulMontLanes(dst, a, b *laneElem, c *laneConsts)

// sqrChainLanes squares chain[i−1] into chain[i] for every i ≥ 1, lane by
// lane (lanes_amd64.s).
//
//go:noescape
func sqrChainLanes(chain []laneElem, c *laneConsts)

// mulPickLanes multiplies lane l of acc by lane l of tab[d−1] for the digit
// d in byte l of digits, or by 1 where d is 0 (lanes_amd64.s).
//
//go:noescape
func mulPickLanes(acc, tab *laneElem, digits uint64, c *laneConsts)
