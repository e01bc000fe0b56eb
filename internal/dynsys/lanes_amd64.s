// The double pendulum's RK4 kernel on AVX2 packed doubles: four parameter
// points — four lanes of a 256-bit register — advance in lockstep. Each
// lane performs exactly the scalar kernel's operations in the scalar
// kernel's order, with no fused multiply-add, so its bits are the scalar
// bits; DESIGN.md §16 has the rule. Only a CPU that hasAVX2 (cpuid_amd64.s)
// runs it: the caller checks.

#include "textflag.h"

// LANES declares a 32-byte constant holding bits in all four lanes.
#define LANES(name, bits) DATA name<>+0(SB)/8, $bits; DATA name<>+8(SB)/8, $bits; DATA name<>+16(SB)/8, $bits; DATA name<>+24(SB)/8, $bits; GLOBL name<>(SB), RODATA|NOPTR, $32

LANES(absMask, 0x7fffffffffffffff)
LANES(signMask, 0x8000000000000000)
LANES(limit, 0x41c0000000000000)      // 2²⁹: math's reduceThreshold
LANES(fourOverPi, 0x3ff45f306dc9c883) // 4/π
LANES(pi4a, 0x3fe921fb40000000)       // π/4 in three parts, as in math.Sincos
LANES(pi4b, 0x3e64442d00000000)
LANES(pi4c, 0x3ce8469898cc5170)
LANES(one, 0x3ff0000000000000)
LANES(half, 0x3fe0000000000000)
LANES(sin0, 0x3de5d8fd1fd19ccd)       // math's _sin coefficients
LANES(sin1, 0xbe5ae5e5a9291f5d)
LANES(sin2, 0x3ec71de3567d48a1)
LANES(sin3, 0xbf2a01a019bfdf03)
LANES(sin4, 0x3f8111111110f7d0)
LANES(sin5, 0xbfc5555555555548)
LANES(cos0, 0xbda8fa49a0861a9b)       // math's _cos coefficients
LANES(cos1, 0x3e21ee9d7b4e3f05)
LANES(cos2, 0xbe927e4f7eac4bc6)
LANES(cos3, 0x3efa01a019c844f5)
LANES(cos4, 0xbf56c16c16c14f91)
LANES(cos5, 0x3fa555555555554b)
LANES(int1, 0x0000000100000001)       // int32 lanes, for rounding j up to even
LANES(int2, 0x0000000000000002)       // int64 lanes, for the octant tests
LANES(int4, 0x0000000000000004)

// SINCOS(x, s, c) sets s, c to math.Sincos of all four lanes of x,
// branch-free: |x|; j = int(|x|·4/π), rounded up to even; y = float64(j);
// the reduction z = ((|x| − y·PI4A) − y·PI4B) − y·PI4C; the two polynomials
// in zz = z·z. Then bit 1 of j swaps the polynomials and flips cos's sign,
// bit 2 flips both signs, and x's sign flips sin's. A lane whose |x| is not
// below 2²⁹ (NaN and ±Inf included) clears its lane of the domain mask Y15.
// x is clobbered (it keeps x's sign bit); Y8–Y12 are scratch.
#define SINCOS(x, s, c) \
	VANDPD      absMask<>(SB), x, Y8; \
	VXORPD      Y8, x, x; \
	VCMPPD      $1, limit<>(SB), Y8, Y9; \
	VANDPD      Y9, Y15, Y15; \
	VMULPD      fourOverPi<>(SB), Y8, Y9; \
	VCVTTPD2DQY Y9, X9; \
	VPAND       int1<>(SB), X9, X10; \
	VPADDD      X10, X9, X9; \
	VCVTDQ2PD   X9, Y10; \
	VMULPD      pi4a<>(SB), Y10, Y11; \
	VSUBPD      Y11, Y8, Y8; \
	VMULPD      pi4b<>(SB), Y10, Y11; \
	VSUBPD      Y11, Y8, Y8; \
	VMULPD      pi4c<>(SB), Y10, Y10; \
	VSUBPD      Y10, Y8, Y8; \
	VMULPD      Y8, Y8, Y10; \
	VMULPD      cos0<>(SB), Y10, c; \
	VADDPD      cos1<>(SB), c, c; \
	VMULPD      Y10, c, c; \
	VADDPD      cos2<>(SB), c, c; \
	VMULPD      Y10, c, c; \
	VADDPD      cos3<>(SB), c, c; \
	VMULPD      Y10, c, c; \
	VADDPD      cos4<>(SB), c, c; \
	VMULPD      Y10, c, c; \
	VADDPD      cos5<>(SB), c, c; \
	VMULPD      Y10, Y10, Y11; \
	VMULPD      Y11, c, c; \
	VMULPD      half<>(SB), Y10, Y12; \
	VMOVUPD     one<>(SB), Y11; \
	VSUBPD      Y12, Y11, Y11; \
	VADDPD      Y11, c, c; \
	VMULPD      sin0<>(SB), Y10, s; \
	VADDPD      sin1<>(SB), s, s; \
	VMULPD      Y10, s, s; \
	VADDPD      sin2<>(SB), s, s; \
	VMULPD      Y10, s, s; \
	VADDPD      sin3<>(SB), s, s; \
	VMULPD      Y10, s, s; \
	VADDPD      sin4<>(SB), s, s; \
	VMULPD      Y10, s, s; \
	VADDPD      sin5<>(SB), s, s; \
	VMULPD      Y10, Y8, Y11; \
	VMULPD      Y11, s, s; \
	VADDPD      Y8, s, s; \
	VPMOVSXDQ   X9, Y9; \
	VPAND       int2<>(SB), Y9, Y10; \
	VPCMPEQQ    int2<>(SB), Y10, Y10; \
	VPAND       int4<>(SB), Y9, Y9; \
	VPCMPEQQ    int4<>(SB), Y9, Y9; \
	VXORPD      c, s, Y11; \
	VANDPD      Y10, Y11, Y11; \
	VXORPD      Y11, s, s; \
	VXORPD      Y11, c, c; \
	VXORPD      Y9, Y10, Y10; \
	VANDPD      signMask<>(SB), Y10, Y10; \
	VXORPD      Y10, c, c; \
	VANDPD      signMask<>(SB), Y9, Y9; \
	VXORPD      x, Y9, Y9; \
	VXORPD      Y9, s, s

// DERIV(base) evaluates doublePendulumRHS.deriv on the state at base(DI):
// ω̇₁ lands in Y9 and ω̇₂ in Y10 (θ̇₁, θ̇₂ are the state's ω₁, ω₂).
// The two trigonometric calls are sin/cos(θ₁−θ₂) and sin/cos(θ₁), in Y0
// and Y14, Y3 and Y7; then 2·sin(θ₁−θ₂) = sinD+sinD lands in Y13,
// cos2D = 1 − 2·sinD·sinD in Y1 and sin12 = 2·sinD·cosD·cos1 − cos2D·sin1
// in Y0.
#define DERIV(base) \
	VMOVUPD base+0(DI), Y2; \
	VMOVUPD base+64(DI), Y3; \
	VSUBPD  Y3, Y2, Y4; \
	SINCOS(Y4, Y0, Y14); \
	SINCOS(Y2, Y3, Y7); \
	VADDPD  Y0, Y0, Y13; \
	VMULPD  Y0, Y13, Y1; \
	VMOVUPD one<>(SB), Y0; \
	VSUBPD  Y1, Y0, Y1; \
	VMULPD  Y14, Y13, Y0; \
	VMULPD  Y7, Y0, Y0; \
	VMULPD  Y3, Y1, Y4; \
	VSUBPD  Y4, Y0, Y0; \
	VMOVUPD 160(DI), Y2; \
	VMULPD  Y2, Y1, Y1; \
	VMOVUPD 320(DI), Y4; \
	VSUBPD  Y1, Y4, Y4; \
	VMOVUPD 128(DI), Y5; \
	VMULPD  Y5, Y4, Y4; \
	VMOVUPD base+32(DI), Y6; \
	VMULPD  Y6, Y6, Y6; \
	VMULPD  Y5, Y6, Y6; \
	VMOVUPD base+96(DI), Y8; \
	VMULPD  Y8, Y8, Y8; \
	VMULPD  Y5, Y8, Y8; \
	VMULPD  192(DI), Y3, Y9; \
	VMULPD  224(DI), Y0, Y10; \
	VSUBPD  Y10, Y9, Y9; \
	VMULPD  Y14, Y6, Y10; \
	VADDPD  Y8, Y10, Y10; \
	VMULPD  Y2, Y13, Y11; \
	VMULPD  Y11, Y10, Y10; \
	VSUBPD  Y10, Y9, Y9; \
	VDIVPD  Y4, Y9, Y9; \
	VMULPD  256(DI), Y6, Y10; \
	VMULPD  288(DI), Y7, Y11; \
	VADDPD  Y11, Y10, Y10; \
	VMULPD  Y2, Y8, Y8; \
	VMULPD  Y14, Y8, Y8; \
	VADDPD  Y8, Y10, Y10; \
	VMULPD  Y13, Y10, Y10; \
	VDIVPD  Y4, Y10, Y10

// SLOPE loads the stage slope's θ components (the stage argument's ω₁, ω₂
// at base) into Y0 and Y1; with DERIV's Y9 and Y10 it is k = (Y0, Y9, Y1, Y10).
#define SLOPE(base) VMOVUPD base+32(DI), Y0; VMOVUPD base+96(DI), Y1

// NEXT writes the next stage argument t = y + scale·k, scale at off(DI).
#define NEXT1(k, y) VMULPD Y2, k, k; VADDPD y(DI), k, k; VMOVUPD k, 448+y(DI)
#define NEXT(off) VMOVUPD off(DI), Y2; NEXT1(Y0, 0); NEXT1(Y9, 32); NEXT1(Y1, 64); NEXT1(Y10, 96)

// TWICE adds 2·k to the accumulator; ACC starts it at k1.
#define TWICE1(k, a) VADDPD k, k, Y3; VADDPD 576+a(DI), Y3, Y4; VMOVUPD Y4, 576+a(DI)
#define TWICE TWICE1(Y0, 0); TWICE1(Y9, 32); TWICE1(Y1, 64); TWICE1(Y10, 96)
#define ACC VMOVUPD Y0, 576(DI); VMOVUPD Y9, 608(DI); VMOVUPD Y1, 640(DI); VMOVUPD Y10, 672(DI)

// LAST adds k4 to the accumulator and the step to the state:
// y += h/6 · (k1 + 2·k2 + 2·k3 + k4), h/6 in Y2.
#define LAST1(k, a) VADDPD 576+a(DI), k, Y3; VMULPD Y2, Y3, Y3; VADDPD a(DI), Y3, Y4; VMOVUPD Y4, a(DI)
#define LAST VMOVUPD 416(DI), Y2; LAST1(Y0, 0); LAST1(Y9, 32); LAST1(Y1, 64); LAST1(Y10, 96)

// INDOMAIN clears Y15's lanes whose value at off(DI) is not below 2²⁹.
#define INDOMAIN(off) VMOVUPD off(DI), Y0; VANDPD absMask<>(SB), Y0, Y0; VCMPPD $1, limit<>(SB), Y0, Y0; VANDPD Y0, Y15, Y15

// func laneSteps(k *laneState, steps int) (inDomain int)
TEXT ·laneSteps(SB), NOSPLIT, $0-24
	MOVQ     k+0(FP), DI
	MOVQ     steps+8(FP), CX
	VPCMPEQQ Y15, Y15, Y15

step:
	DERIV(0)
	SLOPE(0)
	ACC
	NEXT(384)
	DERIV(448)
	SLOPE(448)
	TWICE
	NEXT(384)
	DERIV(448)
	SLOPE(448)
	TWICE
	NEXT(352)
	DERIV(448)
	SLOPE(448)
	LAST
	DECQ     CX
	JNZ      step

	// The θ the caller measures distances on, which no later Sincos checks.
	INDOMAIN(0)
	INDOMAIN(64)
	VMOVMSKPD Y15, AX
	VZEROUPPER
	MOVQ     AX, inDomain+16(FP)
	RET
