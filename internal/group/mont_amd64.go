package group

// useADX selects mulMont4ADX for every 4-limb product. It is read from
// CPUID once, at package initialisation; mulMont4 serves CPUs without
// BMI2 and ADX.
var useADX = cpuHasADX()

// cpuHasADX reports whether the CPU implements MULX (BMI2) and ADCX/ADOX
// (ADX).
func cpuHasADX() bool

// mulMont4ADX is mulMont4 in assembly (mont_amd64.s): the same CIOS rounds
// with MULX products absorbed by two independent carry chains, ADOX for
// the low halves and ADCX for the high halves, and a branch-free final
// subtraction. a and b must hold values < p; dst may alias either.
//
//go:noescape
func mulMont4ADX(dst, a, b, p *[4]uint64, n0 uint64)
