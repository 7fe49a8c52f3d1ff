#include "textflag.h"

// func cpuHasADX() bool
//
// CPUID leaf 7 (sub-leaf 0), EBX bit 8 is BMI2 (MULX) and bit 19 is ADX
// (ADCX/ADOX). Both are general-purpose instructions with no OS-managed
// state, so the CPUID bits alone decide.
TEXT ·cpuHasADX(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   none
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x80100, BX
	CMPL BX, $0x80100
	SETEQ ret+0(FP)
	RET

none:
	MOVB $0, ret+0(FP)
	RET

// MULROUND adds a_i·b (DX = a_i) into the accumulator t0..t5, where t5 is
// zero on entry: the low halves ride the OF chain (ADOX) into t0..t4, the
// high halves the CF chain (ADCX) into t1..t5. MULX leaves the flags alone,
// so the two chains interleave freely.
#define MULROUND(t0, t1, t2, t3, t4, t5) \
	XORQ  AX, AX;       \
	MULXQ 0(SI), AX, BX;  \
	ADOXQ AX, t0;       \
	ADCXQ BX, t1;       \
	MULXQ 8(SI), AX, BX;  \
	ADOXQ AX, t1;       \
	ADCXQ BX, t2;       \
	MULXQ 16(SI), AX, BX; \
	ADOXQ AX, t2;       \
	ADCXQ BX, t3;       \
	MULXQ 24(SI), AX, BX; \
	ADOXQ AX, t3;       \
	ADCXQ BX, t4;       \
	MOVQ  $0, AX;       \
	ADOXQ AX, t4;       \
	ADCXQ AX, t5;       \
	ADOXQ AX, t5

// REDROUND adds m·p with m = t0·n0 mod 2^64 (n0 in R15), which zeroes t0: the
// accumulator is then t1..t5, and t0 — now zero — serves as the zero
// operand that closes both chains and as the next round's t5.
#define REDROUND(t0, t1, t2, t3, t4, t5) \
	MOVQ  t0, DX;          \
	IMULQ R15, DX;         \
	XORQ  AX, AX;          \
	MULXQ 0(CX), AX, BX;   \
	ADOXQ AX, t0;          \
	ADCXQ BX, t1;          \
	MULXQ 8(CX), AX, BX;   \
	ADOXQ AX, t1;          \
	ADCXQ BX, t2;          \
	MULXQ 16(CX), AX, BX;  \
	ADOXQ AX, t2;          \
	ADCXQ BX, t3;          \
	MULXQ 24(CX), AX, BX;  \
	ADOXQ AX, t3;          \
	ADCXQ BX, t4;          \
	ADOXQ t0, t4;          \
	ADCXQ t0, t5;          \
	ADOXQ t0, t5

// func mulMont4ADX(dst, a, b, p *[4]uint64, n0 uint64)
//
// CIOS Montgomery product dst = a·b·2^-256 mod p, for a, b < p. The
// accumulator enters every round below 2p, so it needs five words plus one
// for the carry of the round's additions; rotating the six registers one
// place per round moves it down a word without a single MOV. dst is written
// only after a and b have been read for the last time, so it may alias
// either.
TEXT ·mulMont4ADX(SB), NOSPLIT, $0-40
	MOVQ a+8(FP), DI
	MOVQ b+16(FP), SI
	MOVQ p+24(FP), CX
	MOVQ n0+32(FP), R15

	// Round 1: the accumulator is a0·b itself, summed on one plain ADC chain.
	MOVQ  0(DI), DX
	MULXQ 0(SI), R8, R9
	MULXQ 8(SI), AX, R10
	ADDQ  AX, R9
	MULXQ 16(SI), AX, R11
	ADCQ  AX, R10
	MULXQ 24(SI), AX, R12
	ADCQ  AX, R11
	ADCQ  $0, R12
	XORQ  R13, R13
	REDROUND(R8, R9, R10, R11, R12, R13)

	// Rounds 2–4, each on the registers of the previous one rotated by one.
	MOVQ 8(DI), DX
	MULROUND(R9, R10, R11, R12, R13, R8)
	REDROUND(R9, R10, R11, R12, R13, R8)
	MOVQ 16(DI), DX
	MULROUND(R10, R11, R12, R13, R8, R9)
	REDROUND(R10, R11, R12, R13, R8, R9)
	MOVQ 24(DI), DX
	MULROUND(R11, R12, R13, R8, R9, R10)
	REDROUND(R11, R12, R13, R8, R9, R10)

	// t = R10:R9:R8:R13:R12 < 2p. Subtract p into AX, BX, DX, R11 and keep
	// the difference unless the top word borrows too (t < p).
	MOVQ    R12, AX
	SUBQ    0(CX), AX
	MOVQ    R13, BX
	SBBQ    8(CX), BX
	MOVQ    R8, DX
	SBBQ    16(CX), DX
	MOVQ    R9, R11
	SBBQ    24(CX), R11
	SBBQ    $0, R10
	CMOVQCC AX, R12
	CMOVQCC BX, R13
	CMOVQCC DX, R8
	CMOVQCC R11, R9

	MOVQ dst+0(FP), DI
	MOVQ R12, 0(DI)
	MOVQ R13, 8(DI)
	MOVQ R8, 16(DI)
	MOVQ R9, 24(DI)
	RET
