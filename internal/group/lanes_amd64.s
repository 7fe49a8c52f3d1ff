#include "textflag.h"

// Eight 256-bit Montgomery products at once on AVX-512 IFMA (lanes.go).
//
// An operand is a laneElem: five 52-bit limbs for each of eight lanes,
// limb-major, so limb j of all eight lanes is one ZMM load at offset 64·j.
// Every product reads whole lanes and writes whole lanes; no lane ever
// looks at another. Registers: a in Z0–Z4, b in Z5–Z9, p in Z10–Z14, the
// accumulator in Z18–Z23, n0 in Z16, the 52-bit mask in Z17, m in Z24 and a
// carry in Z25. Z15 is avoided, not left to the ABI0 wrapper to re-zero:
// the ABIInternal zero register X15 comes back as it went in. Both product
// functions end in VZEROUPPER, so the SSE code that runs next pays no
// transition penalty.

// func cpuHasIFMA() bool
//
// CPUID leaf 1, ECX bit 27 is OSXSAVE: XGETBV is available. XCR0 bits 1, 2,
// 5, 6 and 7 (0xE6) say the OS saves the XMM, YMM, opmask, ZMM_Hi256 and
// Hi16_ZMM state across context switches. CPUID leaf 7 (sub-leaf 0), EBX
// bit 16 is AVX512F and bit 21 AVX512_IFMA. All must hold.
TEXT ·cpuHasIFMA(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   none
	MOVL $1, AX
	CPUID
	BTL  $27, CX
	JCC  none
	MOVL $0, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  none
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x210000, BX
	CMPL BX, $0x210000
	SETEQ ret+0(FP)
	RET

none:
	MOVB $0, ret+0(FP)
	RET

// LOADCONSTS reads p, n0 and the mask from the laneConsts at CX.
#define LOADCONSTS \
	VMOVDQU64 0(CX), Z10;   \
	VMOVDQU64 64(CX), Z11;  \
	VMOVDQU64 128(CX), Z12; \
	VMOVDQU64 192(CX), Z13; \
	VMOVDQU64 256(CX), Z14; \
	VMOVDQU64 320(CX), Z16; \
	VMOVDQU64 384(CX), Z17

// LOAD5 reads the laneElem at ptr into five registers.
#define LOAD5(ptr, r0, r1, r2, r3, r4) \
	VMOVDQU64 0(ptr), r0;   \
	VMOVDQU64 64(ptr), r1;  \
	VMOVDQU64 128(ptr), r2; \
	VMOVDQU64 192(ptr), r3; \
	VMOVDQU64 256(ptr), r4

// STORE5 writes five registers to the laneElem at ptr.
#define STORE5(ptr, r0, r1, r2, r3, r4) \
	VMOVDQU64 r0, 0(ptr);   \
	VMOVDQU64 r1, 64(ptr);  \
	VMOVDQU64 r2, 128(ptr); \
	VMOVDQU64 r3, 192(ptr); \
	VMOVDQU64 r4, 256(ptr)

// ZEROACC clears the accumulator.
#define ZEROACC \
	VPXORQ Z18, Z18, Z18; \
	VPXORQ Z19, Z19, Z19; \
	VPXORQ Z20, Z20, Z20; \
	VPXORQ Z21, Z21, Z21; \
	VPXORQ Z22, Z22, Z22; \
	VPXORQ Z23, Z23, Z23

// ROUND adds ai·b into the accumulator t0..t5 (t5 zero on entry: the low
// halves of the five limb products go to t0..t4, the high halves to
// t1..t5), then m·p with m = t0·n0 mod 2^52, which clears t0's low 52 bits,
// and moves t0's carry into t1. The accumulator is t1..t5 afterwards, and
// t0, zeroed, is the next round's t5. No limb is normalised in between: a
// limb gains less than 2^54 a round, far below 2^64.
#define ROUND(ai, b0, b1, b2, b3, b4, t0, t1, t2, t3, t4, t5) \
	VPMADD52LUQ b0, ai, t0;  \
	VPMADD52LUQ b1, ai, t1;  \
	VPMADD52LUQ b2, ai, t2;  \
	VPMADD52LUQ b3, ai, t3;  \
	VPMADD52LUQ b4, ai, t4;  \
	VPXORQ      Z24, Z24, Z24; \
	VPMADD52LUQ Z16, t0, Z24; \
	VPMADD52HUQ b0, ai, t1;  \
	VPMADD52HUQ b1, ai, t2;  \
	VPMADD52HUQ b2, ai, t3;  \
	VPMADD52HUQ b3, ai, t4;  \
	VPMADD52HUQ b4, ai, t5;  \
	VPMADD52LUQ Z10, Z24, t0; \
	VPMADD52LUQ Z11, Z24, t1; \
	VPMADD52LUQ Z12, Z24, t2; \
	VPMADD52LUQ Z13, Z24, t3; \
	VPMADD52LUQ Z14, Z24, t4; \
	VPSRLQ      $52, t0, Z25; \
	VPMADD52HUQ Z10, Z24, t1; \
	VPMADD52HUQ Z11, Z24, t2; \
	VPMADD52HUQ Z12, Z24, t3; \
	VPMADD52HUQ Z13, Z24, t4; \
	VPMADD52HUQ Z14, Z24, t5; \
	VPADDQ      Z25, t1, t1;  \
	VPXORQ      t0, t0, t0

// PRODUCT runs the five rounds of a·b (a in Z0–Z4, b in b0..b4) and
// propagates the carries, leaving the normalised result in Z23, Z18, Z19,
// Z20, Z21: five limbs below 2^52 of a value below 2p.
#define PRODUCT(b0, b1, b2, b3, b4) \
	ZEROACC; \
	ROUND(Z0, b0, b1, b2, b3, b4, Z18, Z19, Z20, Z21, Z22, Z23); \
	ROUND(Z1, b0, b1, b2, b3, b4, Z19, Z20, Z21, Z22, Z23, Z18); \
	ROUND(Z2, b0, b1, b2, b3, b4, Z20, Z21, Z22, Z23, Z18, Z19); \
	ROUND(Z3, b0, b1, b2, b3, b4, Z21, Z22, Z23, Z18, Z19, Z20); \
	ROUND(Z4, b0, b1, b2, b3, b4, Z22, Z23, Z18, Z19, Z20, Z21); \
	VPSRLQ $52, Z23, Z25; \
	VPANDQ Z17, Z23, Z23; \
	VPADDQ Z25, Z18, Z18; \
	VPSRLQ $52, Z18, Z25; \
	VPANDQ Z17, Z18, Z18; \
	VPADDQ Z25, Z19, Z19; \
	VPSRLQ $52, Z19, Z25; \
	VPANDQ Z17, Z19, Z19; \
	VPADDQ Z25, Z20, Z20; \
	VPSRLQ $52, Z20, Z25; \
	VPANDQ Z17, Z20, Z20; \
	VPADDQ Z25, Z21, Z21

// func mulMontLanes(dst, a, b *laneElem, c *laneConsts)
//
// dst = a·b·2^-260 mod p in every lane, below 2p, for a and b below 2p
// with limbs below 2^52. Sound because 4p < 2^260: the accumulator then
// ends below (4p² + 2^260·p)/2^260 < 2p. dst is written after a and b have
// been read for the last time, so it may alias either.
TEXT ·mulMontLanes(SB), NOSPLIT, $0-32
	MOVQ a+8(FP), DI
	MOVQ b+16(FP), SI
	MOVQ c+24(FP), CX
	LOADCONSTS
	LOAD5(DI, Z0, Z1, Z2, Z3, Z4)
	LOAD5(SI, Z5, Z6, Z7, Z8, Z9)
	PRODUCT(Z5, Z6, Z7, Z8, Z9)
	MOVQ dst+0(FP), DI
	STORE5(DI, Z23, Z18, Z19, Z20, Z21)
	VZEROUPPER
	RET

// func sqrChainLanes(chain []laneElem, c *laneConsts)
//
// chain[i] = chain[i−1]² for i ≥ 1, lane by lane: the squaring chain of
// PowRecoded's lanes, with the running square kept in registers.
TEXT ·sqrChainLanes(SB), NOSPLIT, $0-32
	MOVQ chain_base+0(FP), DI
	MOVQ chain_len+8(FP), BX
	MOVQ c+24(FP), CX
	CMPQ BX, $1
	JBE  done
	DECQ BX
	LOADCONSTS
	LOAD5(DI, Z0, Z1, Z2, Z3, Z4)

loop:
	PRODUCT(Z0, Z1, Z2, Z3, Z4)
	ADDQ $320, DI
	STORE5(DI, Z23, Z18, Z19, Z20, Z21)
	VMOVDQA64 Z23, Z0
	VMOVDQA64 Z18, Z1
	VMOVDQA64 Z19, Z2
	VMOVDQA64 Z20, Z3
	VMOVDQA64 Z21, Z4
	DECQ BX
	JNZ  loop

done:
	VZEROUPPER
	RET

// func mulPickLanes(acc, tab *laneElem, digits uint64, c *laneConsts)
//
// acc = acc·b·2^-260 mod p in every lane, where lane l of b is lane l of
// tab[d−1] for the digit d in byte l of digits, or 1 (the laneConsts' one)
// where d is 0: the
// pick of the Straus body (lanes.go). Limb j of lane l of entry d − 1 is
// word (d−1)·40 + 8j + l of tab: the index vector holds d·40 + pick[l] =
// (d−1)·40 + l, and the displacement 64j selects the limb, so one
// VPGATHERQQ per limb fetches every lane's entry, masked to the lanes with
// a non-zero digit; the others keep the 1 loaded before. The laneConsts
// offsets are one at 1088 and pick at 1408 (TestLaneConstsLayout). Z26
// holds the indices and Z27 a partial product of them.
TEXT ·mulPickLanes(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ tab+8(FP), SI
	MOVQ c+24(FP), CX
	LOADCONSTS
	MOVQ      digits+16(FP), AX
	VMOVQ     AX, X26
	VPMOVZXBQ X26, Z26
	VPTESTMQ  Z26, Z26, K1
	VPSLLQ    $5, Z26, Z27
	VPSLLQ    $3, Z26, Z26
	VPADDQ    Z27, Z26, Z26
	VPADDQ    1408(CX), Z26, Z26
	VMOVDQU64 1088(CX), Z5
	VMOVDQU64 1152(CX), Z6
	VMOVDQU64 1216(CX), Z7
	VMOVDQU64 1280(CX), Z8
	VMOVDQU64 1344(CX), Z9
	KMOVW      K1, K2
	VPGATHERQQ 0(SI)(Z26*8), K2, Z5
	KMOVW      K1, K2
	VPGATHERQQ 64(SI)(Z26*8), K2, Z6
	KMOVW      K1, K2
	VPGATHERQQ 128(SI)(Z26*8), K2, Z7
	KMOVW      K1, K2
	VPGATHERQQ 192(SI)(Z26*8), K2, Z8
	KMOVW      K1, K2
	VPGATHERQQ 256(SI)(Z26*8), K2, Z9
	LOAD5(DI, Z0, Z1, Z2, Z3, Z4)
	PRODUCT(Z5, Z6, Z7, Z8, Z9)
	STORE5(DI, Z23, Z18, Z19, Z20, Z21)
	VZEROUPPER
	RET
