// The double pendulum's RK4 kernel on SSE2 packed doubles: two parameter
// points — two lanes — advance in lockstep. Each lane performs exactly the
// scalar kernel's operations in the scalar kernel's order, with no fused
// multiply-add, so its bits are the scalar bits; DESIGN.md §16 has the rule.
// SSE2 is the amd64 baseline, so nothing here needs a CPU feature check.

#include "textflag.h"

// PAIR declares a 16-byte constant holding bits in both lanes. A 16-byte
// data symbol is 16-byte aligned, as the SSE memory operands below need.
#define PAIR(name, bits) DATA name<>+0(SB)/8, $bits; DATA name<>+8(SB)/8, $bits; GLOBL name<>(SB), RODATA|NOPTR, $16

PAIR(absMask, 0x7fffffffffffffff)
PAIR(signMask, 0x8000000000000000)
PAIR(limit, 0x41c0000000000000)      // 2²⁹: math's reduceThreshold
PAIR(fourOverPi, 0x3ff45f306dc9c883) // 4/π
PAIR(pi4a, 0x3fe921fb40000000)       // π/4 in three parts, as in math.Sincos
PAIR(pi4b, 0x3e64442d00000000)
PAIR(pi4c, 0x3ce8469898cc5170)
PAIR(one, 0x3ff0000000000000)
PAIR(half, 0x3fe0000000000000)
PAIR(sin0, 0x3de5d8fd1fd19ccd)       // math's _sin coefficients
PAIR(sin1, 0xbe5ae5e5a9291f5d)
PAIR(sin2, 0x3ec71de3567d48a1)
PAIR(sin3, 0xbf2a01a019bfdf03)
PAIR(sin4, 0x3f8111111110f7d0)
PAIR(sin5, 0xbfc5555555555548)
PAIR(cos0, 0xbda8fa49a0861a9b)       // math's _cos coefficients
PAIR(cos1, 0x3e21ee9d7b4e3f05)
PAIR(cos2, 0xbe927e4f7eac4bc6)
PAIR(cos3, 0x3efa01a019c844f5)
PAIR(cos4, 0xbf56c16c16c14f91)
PAIR(cos5, 0x3fa555555555554b)
PAIR(int1, 0x0000000100000001)       // int32 lanes for the octant tests
PAIR(int2, 0x0000000200000002)
PAIR(int4, 0x0000000400000004)

// SINCOS(x, s, c) sets s, c to math.Sincos of both lanes of x, branch-free:
// |x|; j = int(|x|·4/π), rounded up to even; y = float64(j); the reduction
// z = ((|x| − y·PI4A) − y·PI4B) − y·PI4C; the two polynomials in zz = z·z.
// Then bit 1 of j swaps the polynomials and flips cos's sign, bit 2 flips
// both signs, and x's sign flips sin's. A lane whose |x| is not below 2²⁹
// (NaN and ±Inf included) clears its half of the domain mask X15.
// x is clobbered (it keeps x's sign bit); X8–X12 are scratch.
#define SINCOS(x, s, c) \
	MOVAPD    x, X8; \
	ANDPD     absMask<>(SB), X8; \
	XORPD     X8, x; \
	MOVAPD    X8, X9; \
	CMPPD     limit<>(SB), X9, $1; \
	ANDPD     X9, X15; \
	MOVAPD    X8, X9; \
	MULPD     fourOverPi<>(SB), X9; \
	CVTTPD2PL X9, X9; \
	MOVAPD    X9, X10; \
	PAND      int1<>(SB), X10; \
	PADDL     X10, X9; \
	CVTPL2PD  X9, X10; \
	MOVAPD    X10, X11; \
	MULPD     pi4a<>(SB), X11; \
	SUBPD     X11, X8; \
	MOVAPD    X10, X11; \
	MULPD     pi4b<>(SB), X11; \
	SUBPD     X11, X8; \
	MULPD     pi4c<>(SB), X10; \
	SUBPD     X10, X8; \
	MOVAPD    X8, X10; \
	MULPD     X8, X10; \
	MOVAPD    X10, c; \
	MULPD     cos0<>(SB), c; \
	ADDPD     cos1<>(SB), c; \
	MULPD     X10, c; \
	ADDPD     cos2<>(SB), c; \
	MULPD     X10, c; \
	ADDPD     cos3<>(SB), c; \
	MULPD     X10, c; \
	ADDPD     cos4<>(SB), c; \
	MULPD     X10, c; \
	ADDPD     cos5<>(SB), c; \
	MOVAPD    X10, X11; \
	MULPD     X10, X11; \
	MULPD     X11, c; \
	MOVAPD    X10, X12; \
	MULPD     half<>(SB), X12; \
	MOVAPD    one<>(SB), X11; \
	SUBPD     X12, X11; \
	ADDPD     X11, c; \
	MOVAPD    X10, s; \
	MULPD     sin0<>(SB), s; \
	ADDPD     sin1<>(SB), s; \
	MULPD     X10, s; \
	ADDPD     sin2<>(SB), s; \
	MULPD     X10, s; \
	ADDPD     sin3<>(SB), s; \
	MULPD     X10, s; \
	ADDPD     sin4<>(SB), s; \
	MULPD     X10, s; \
	ADDPD     sin5<>(SB), s; \
	MOVAPD    X8, X11; \
	MULPD     X10, X11; \
	MULPD     X11, s; \
	ADDPD     X8, s; \
	PSHUFD    $0x50, X9, X9; \
	MOVAPD    X9, X10; \
	PAND      int2<>(SB), X10; \
	PCMPEQL   int2<>(SB), X10; \
	PAND      int4<>(SB), X9; \
	PCMPEQL   int4<>(SB), X9; \
	MOVAPD    s, X11; \
	XORPD     c, X11; \
	ANDPD     X10, X11; \
	XORPD     X11, s; \
	XORPD     X11, c; \
	XORPD     X9, X10; \
	ANDPD     signMask<>(SB), X10; \
	XORPD     X10, c; \
	ANDPD     signMask<>(SB), X9; \
	XORPD     x, X9; \
	XORPD     X9, s

// DERIV(base) evaluates doublePendulumRHS.deriv on the state at base(DI):
// ω̇₁ lands in X9 and ω̇₂ in X10 (θ̇₁, θ̇₂ are the state's ω₁, ω₂).
// The trigonometric values are sin/cos(θ₁−θ₂) in X13/X14, sin/cos(θ₁) in
// X3/X7, cos(2θ₁−2θ₂) in X1 and sin(θ₁−2θ₂) in X0.
#define DERIV(base) \
	MOVUPD base+0(DI), X2; \
	MOVUPD base+32(DI), X3; \
	MOVAPD X2, X4; \
	SUBPD  X3, X4; \
	ADDPD  X3, X3; \
	MOVAPD X2, X5; \
	ADDPD  X2, X5; \
	SUBPD  X3, X5; \
	MOVAPD X2, X6; \
	SUBPD  X3, X6; \
	SINCOS(X4, X13, X14); \
	SINCOS(X2, X3, X7); \
	SINCOS(X5, X0, X1); \
	SINCOS(X6, X0, X2); \
	MOVUPD 80(DI), X2; \
	MULPD  X2, X1; \
	MOVUPD 160(DI), X4; \
	SUBPD  X1, X4; \
	MOVUPD 64(DI), X5; \
	MULPD  X5, X4; \
	MOVUPD base+16(DI), X6; \
	MULPD  X6, X6; \
	MULPD  X5, X6; \
	MOVUPD base+48(DI), X8; \
	MULPD  X8, X8; \
	MULPD  X5, X8; \
	ADDPD  X13, X13; \
	MOVUPD 96(DI), X9; \
	MULPD  X3, X9; \
	MOVUPD 112(DI), X10; \
	MULPD  X0, X10; \
	SUBPD  X10, X9; \
	MOVAPD X6, X10; \
	MULPD  X14, X10; \
	ADDPD  X8, X10; \
	MOVAPD X13, X11; \
	MULPD  X2, X11; \
	MULPD  X11, X10; \
	SUBPD  X10, X9; \
	DIVPD  X4, X9; \
	MOVUPD 128(DI), X10; \
	MULPD  X6, X10; \
	MOVUPD 144(DI), X11; \
	MULPD  X7, X11; \
	ADDPD  X11, X10; \
	MULPD  X2, X8; \
	MULPD  X14, X8; \
	ADDPD  X8, X10; \
	MULPD  X13, X10; \
	DIVPD  X4, X10

// SLOPE loads the stage slope's θ components (the stage argument's ω₁, ω₂
// at base) into X0 and X1; with DERIV's X9 and X10 it is k = (X0, X9, X1, X10).
#define SLOPE(base) MOVUPD base+16(DI), X0; MOVUPD base+48(DI), X1

// NEXT writes the next stage argument t = y + scale·k, scale at off(DI).
#define NEXT1(k, y) MULPD X2, k; MOVUPD y(DI), X3; ADDPD X3, k; MOVUPD k, 224+y(DI)
#define NEXT(off) MOVUPD off(DI), X2; NEXT1(X0, 0); NEXT1(X9, 16); NEXT1(X1, 32); NEXT1(X10, 48)

// TWICE adds 2·k to the accumulator; ACC starts it at k1.
#define TWICE1(k, a) MOVAPD k, X3; ADDPD X3, X3; MOVUPD 288+a(DI), X4; ADDPD X3, X4; MOVUPD X4, 288+a(DI)
#define TWICE TWICE1(X0, 0); TWICE1(X9, 16); TWICE1(X1, 32); TWICE1(X10, 48)
#define ACC MOVUPD X0, 288(DI); MOVUPD X9, 304(DI); MOVUPD X1, 320(DI); MOVUPD X10, 336(DI)

// LAST adds k4 to the accumulator and the step to the state:
// y += h/6 · (k1 + 2·k2 + 2·k3 + k4), h/6 in X2.
#define LAST1(k, a) MOVUPD 288+a(DI), X3; ADDPD k, X3; MULPD X2, X3; MOVUPD a(DI), X4; ADDPD X3, X4; MOVUPD X4, a(DI)
#define LAST MOVUPD 208(DI), X2; LAST1(X0, 0); LAST1(X9, 16); LAST1(X1, 32); LAST1(X10, 48)

// INDOMAIN clears X15's lanes whose value at off(DI) is not below 2²⁹.
#define INDOMAIN(off) MOVUPD off(DI), X0; ANDPD absMask<>(SB), X0; CMPPD limit<>(SB), X0, $1; ANDPD X0, X15

// func pairSteps(k *pairState, steps int) (inDomain int)
TEXT ·pairSteps(SB), NOSPLIT, $0-24
	MOVQ    k+0(FP), DI
	MOVQ    steps+8(FP), CX
	PCMPEQL X15, X15

step:
	DERIV(0)
	SLOPE(0)
	ACC
	NEXT(192)
	DERIV(224)
	SLOPE(224)
	TWICE
	NEXT(192)
	DERIV(224)
	SLOPE(224)
	TWICE
	NEXT(176)
	DERIV(224)
	SLOPE(224)
	LAST
	DECQ    CX
	JNZ     step

	// The θ the caller measures distances on, which no later Sincos checks.
	INDOMAIN(0)
	INDOMAIN(32)
	MOVMSKPD X15, AX
	MOVQ    AX, inDomain+16(FP)
	RET
