#include "textflag.h"

// AVX bodies of the co-state kernel's passes in costate.go: the
// interpolation in fill and the exact adjoint's stage passes. Each runs the
// first n &^ 3 groups, four per instruction, with the IEEE operations of
// its Go loop in the same order and grouping: VEX-encoded, no fused
// multiply-add, negation as a sign-bit XOR, and lane sums added to the
// scalar accumulator one lane at a time in ascending group order. The
// packed vectors hold the S (ψ) half at index i and the I (φ) half at index
// n+i; AX walks the first and BX the second.

// signbit flips a float64's sign, as Go's unary minus does.
DATA signbit<>+0(SB)/8, $0x8000000000000000
DATA signbit<>+8(SB)/8, $0x8000000000000000
DATA signbit<>+16(SB)/8, $0x8000000000000000
DATA signbit<>+24(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $32

// ADDLANES adds the four lanes of V (X its low half) to the scalar X6 in
// ascending order, with X5 as scratch. It overwrites X.
#define ADDLANES(V, X) \
	VADDSD       X, X6, X6; \
	VPERMILPD    $1, X, X5; \
	VADDSD       X5, X6, X6; \
	VEXTRACTF128 $1, V, X; \
	VADDSD       X, X6, X6; \
	VPERMILPD    $1, X, X5; \
	VADDSD       X5, X6, X6

// START sets AX = 0 and CX = n &^ 3, BX = n already, and jumps to done
// when there is no group of four.
#define START \
	XORQ  AX, AX; \
	MOVQ  BX, CX; \
	ANDQ  $-4, CX; \
	TESTQ CX, CX; \
	JZ    done

#define NEXT \
	ADDQ $4, AX; \
	ADDQ $4, BX; \
	CMPQ AX, CX; \
	JB   loop

// func interpAVX(y, ylo, yhi, phi []float64, w float64) float64
TEXT ·interpAVX(SB), NOSPLIT, $0-112
	MOVQ         y_base+0(FP), DI
	MOVQ         ylo_base+24(FP), SI
	MOVQ         yhi_base+48(FP), R8
	MOVQ         phi_base+72(FP), R9
	MOVQ         phi_len+80(FP), BX
	VBROADCASTSD w+96(FP), Y8
	VXORPD       X6, X6, X6
	START

loop:
	// v + w·(hi − v), for S_i and then I_i.
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (R8)(AX*8), Y1
	VSUBPD  Y0, Y1, Y1
	VMULPD  Y8, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD (SI)(BX*8), Y0
	VMOVUPD (R8)(BX*8), Y1
	VSUBPD  Y0, Y1, Y1
	VMULPD  Y8, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)

	// Θ numerator: φ_i·I_i.
	VMULPD (R9)(AX*8), Y0, Y1
	ADDLANES(Y1, X1)
	NEXT

done:
	VZEROUPPER
	VMOVSD X6, ret+104(FP)
	RET

// DERIV evaluates the exact adjoint's co-state derivative at the stage
// co-state ψ = Y0, φ = Y1, with the state y at R8, λ at R9, φ(k)/⟨k⟩ at R10,
// ε1 = Y8, ε2 = Y9, Θ = Y10, −2c1ε1² = Y11, −2c2ε2² = Y12 and the coupling
// sum = Y13. It leaves Y2 = λ, Y3 = dψ/dt = ((a1·S) + ψ·((λ·Θ) + ε1)) −
// ((φ·λ)·Θ) and Y4 = dφ/dt = ((a2·I) + (φ(k)/⟨k⟩)·coupling) + φ·ε2. Y5 is
// scratch.
#define DERIV \
	VMOVUPD (R9)(AX*8), Y2; \
	VMULPD  (R8)(AX*8), Y11, Y3; \
	VMULPD  Y10, Y2, Y4; \
	VADDPD  Y8, Y4, Y4; \
	VMULPD  Y4, Y0, Y4; \
	VADDPD  Y4, Y3, Y3; \
	VMULPD  Y2, Y1, Y4; \
	VMULPD  Y10, Y4, Y4; \
	VSUBPD  Y4, Y3, Y3; \
	VMULPD  (R8)(BX*8), Y12, Y4; \
	VMULPD  (R10)(AX*8), Y13, Y5; \
	VADDPD  Y5, Y4, Y4; \
	VMULPD  Y9, Y1, Y5; \
	VADDPD  Y5, Y4, Y4

// STORE writes the reversed-time derivative (−dψ/dt, −dφ/dt) to ko at DI,
// and COUPLE adds the lanes of the next stage's coupling terms
// ((ψ + cn·−dψ) − (φ + cn·−dφ))·λ·S_next to X6, with z at SI, the next
// stage's state at R11 and cn = Y14.
#define STORE \
	VXORPD  signbit<>(SB), Y3, Y3; \
	VXORPD  signbit<>(SB), Y4, Y4; \
	VMOVUPD Y3, (DI)(AX*8); \
	VMOVUPD Y4, (DI)(BX*8)

#define COUPLE \
	VMULPD Y14, Y3, Y3; \
	VADDPD (SI)(AX*8), Y3, Y3; \
	VMULPD Y14, Y4, Y4; \
	VADDPD (SI)(BX*8), Y4, Y4; \
	VSUBPD Y4, Y3, Y3; \
	VMULPD Y2, Y3, Y3; \
	VMULPD (R11)(AX*8), Y3, Y3; \
	ADDLANES(Y3, X3)

// BROADCAST loads the t-only terms shared by the three stage bodies; off
// is the frame offset of e1.
#define BROADCAST(e1, e2, theta, a1, a2, coupling) \
	VBROADCASTSD e1, Y8; \
	VBROADCASTSD e2, Y9; \
	VBROADCASTSD theta, Y10; \
	VBROADCASTSD a1, Y11; \
	VBROADCASTSD a2, Y12; \
	VBROADCASTSD coupling, Y13

// func costateFirstAVX(z, y, ko, ns, lam, kphi []float64, e1, e2, theta, a1, a2, coupling, cn float64) float64
TEXT ·costateFirstAVX(SB), NOSPLIT, $0-208
	MOVQ         z_base+0(FP), SI
	MOVQ         y_base+24(FP), R8
	MOVQ         ko_base+48(FP), DI
	MOVQ         ns_base+72(FP), R11
	MOVQ         lam_base+96(FP), R9
	MOVQ         lam_len+104(FP), BX
	MOVQ         kphi_base+120(FP), R10
	BROADCAST(e1+144(FP), e2+152(FP), theta+160(FP), a1+168(FP), a2+176(FP), coupling+184(FP))
	VBROADCASTSD cn+192(FP), Y14
	VXORPD       X6, X6, X6
	START

loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (SI)(BX*8), Y1
	DERIV
	STORE
	COUPLE
	NEXT

done:
	VZEROUPPER
	VMOVSD X6, ret+200(FP)
	RET

// func costateNextAVX(z, kp, y, ko, ns, lam, kphi []float64, c, e1, e2, theta, a1, a2, coupling, cn float64) float64
TEXT ·costateNextAVX(SB), NOSPLIT, $0-240
	MOVQ         z_base+0(FP), SI
	MOVQ         kp_base+24(FP), R12
	MOVQ         y_base+48(FP), R8
	MOVQ         ko_base+72(FP), DI
	MOVQ         ns_base+96(FP), R11
	MOVQ         lam_base+120(FP), R9
	MOVQ         lam_len+128(FP), BX
	MOVQ         kphi_base+144(FP), R10
	VBROADCASTSD c+168(FP), Y7
	BROADCAST(e1+176(FP), e2+184(FP), theta+192(FP), a1+200(FP), a2+208(FP), coupling+216(FP))
	VBROADCASTSD cn+224(FP), Y14
	VXORPD       X6, X6, X6
	START

loop:
	// The stage co-state z + c·kp.
	VMULPD (R12)(AX*8), Y7, Y0
	VADDPD (SI)(AX*8), Y0, Y0
	VMULPD (R12)(BX*8), Y7, Y1
	VADDPD (SI)(BX*8), Y1, Y1
	DERIV
	STORE
	COUPLE
	NEXT

done:
	VZEROUPPER
	VMOVSD X6, ret+232(FP)
	RET

// COMBINE writes ((((z + h/6·k1) + h/3·k2) + h/3·k3) + h/6·K) to dst at
// index I and leaves it in D, with z, k1, k2, k3 and dst at SI, R11, R12,
// R13 and DI, h/6 = Y14 and h/3 = Y15. Y5 is scratch; it overwrites K.
#define COMBINE(I, K, D) \
	VMULPD  (R11)(I*8), Y14, D; \
	VADDPD  (SI)(I*8), D, D; \
	VMULPD  (R12)(I*8), Y15, Y5; \
	VADDPD  Y5, D, D; \
	VMULPD  (R13)(I*8), Y15, Y5; \
	VADDPD  Y5, D, D; \
	VMULPD  Y14, K, K; \
	VADDPD  K, D, D; \
	VMOVUPD D, (DI)(I*8)

// FINITE adds V − V to the finiteness accumulator Y7, with T as scratch:
// like the Go loop's v·0, it is 0 for a finite v and NaN otherwise. Lane
// order does not matter here, since the sum is 0 or NaN.
#define FINITE(V, T) \
	VSUBPD V, V, T; \
	VADDPD T, Y7, Y7

// func costateLastAVX(z, k1, k2, k3, y, dst, lam, kphi []float64, h, e1, e2, theta, a1, a2, coupling, h6, h3 float64) (next, fin float64)
TEXT ·costateLastAVX(SB), NOSPLIT, $0-280
	MOVQ         z_base+0(FP), SI
	MOVQ         k1_base+24(FP), R11
	MOVQ         k2_base+48(FP), R12
	MOVQ         k3_base+72(FP), R13
	MOVQ         y_base+96(FP), R8
	MOVQ         dst_base+120(FP), DI
	MOVQ         lam_base+144(FP), R9
	MOVQ         lam_len+152(FP), BX
	MOVQ         kphi_base+168(FP), R10
	BROADCAST(e1+200(FP), e2+208(FP), theta+216(FP), a1+224(FP), a2+232(FP), coupling+240(FP))
	VBROADCASTSD h6+248(FP), Y14
	VBROADCASTSD h3+256(FP), Y15
	VXORPD       Y6, Y6, Y6
	VXORPD       Y7, Y7, Y7
	START

loop:
	// The stage co-state z + h·k3; h is reloaded each block, as every
	// other register is taken.
	VBROADCASTSD h+192(FP), Y5
	VMULPD       (R13)(AX*8), Y5, Y0
	VADDPD       (SI)(AX*8), Y0, Y0
	VMULPD       (R13)(BX*8), Y5, Y1
	VADDPD       (SI)(BX*8), Y1, Y1
	DERIV
	VXORPD       signbit<>(SB), Y3, Y3
	VXORPD       signbit<>(SB), Y4, Y4
	COMBINE(AX, Y3, Y0)
	COMBINE(BX, Y4, Y1)
	FINITE(Y0, Y3)
	FINITE(Y1, Y4)

	// The next step's coupling term ((ψ − φ)·λ)·S of dst against y.
	VSUBPD Y1, Y0, Y0
	VMULPD Y2, Y0, Y0
	VMULPD (R8)(AX*8), Y0, Y0
	ADDLANES(Y0, X0)
	NEXT

done:
	// Fold the finiteness lanes.
	VEXTRACTF128 $1, Y7, X5
	VADDPD       X5, X7, X7
	VPERMILPD    $1, X7, X5
	VADDSD       X5, X7, X7
	VZEROUPPER
	VMOVSD       X6, next+264(FP)
	VMOVSD       X7, fin+272(FP)
	RET
