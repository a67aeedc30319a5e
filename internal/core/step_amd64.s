#include "textflag.h"

// AVX bodies of the stage passes in step.go. Each runs the first n &^ 3
// groups, four per instruction, with the IEEE operations of its Go loop in
// the same order and grouping: VEX-encoded, no fused multiply-add, and
// lane sums added to the scalar accumulator one lane at a time in
// ascending group order. The packed vectors hold S_i at index i and I_i at
// index n+i; AX walks the first and BX the second.

// DERIV evaluates System (1) at the stage state S = Y0, I = Y1 with λ at
// (R8)(AX*8), α = Y8, Θ = Y9, ε1 = Y10 and ε2 = Y11:
// Y2 = force = (λ·S)·Θ, Y3 = dS/dt = (α − force) − ε1·S and, last,
// Y2 = dI/dt = force − ε2·I. Y4 is scratch.
#define DERIV \
	VMULPD (R8)(AX*8), Y0, Y2; \
	VMULPD Y9, Y2, Y2; \
	VSUBPD Y2, Y8, Y3; \
	VMULPD Y10, Y0, Y4; \
	VSUBPD Y4, Y3, Y3; \
	VMULPD Y11, Y1, Y4; \
	VSUBPD Y4, Y2, Y2

// ADDLANES adds the four lanes of V (X its low half) to the scalar X7 in
// ascending order, with X4 as scratch. It overwrites X.
#define ADDLANES(V, X) \
	VADDSD       X, X7, X7; \
	VPERMILPD    $1, X, X4; \
	VADDSD       X4, X7, X7; \
	VEXTRACTF128 $1, V, X; \
	VADDSD       X, X7, X7; \
	VPERMILPD    $1, X, X4; \
	VADDSD       X4, X7, X7

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

// func stageFirstAVX(y, k, lam, phi []float64, alpha, theta, e1, e2, cn float64) float64
TEXT ·stageFirstAVX(SB), NOSPLIT, $0-144
	MOVQ         y_base+0(FP), SI
	MOVQ         k_base+24(FP), DI
	MOVQ         lam_base+48(FP), R8
	MOVQ         lam_len+56(FP), BX
	MOVQ         phi_base+72(FP), R9
	VBROADCASTSD alpha+96(FP), Y8
	VBROADCASTSD theta+104(FP), Y9
	VBROADCASTSD e1+112(FP), Y10
	VBROADCASTSD e2+120(FP), Y11
	VBROADCASTSD cn+128(FP), Y12
	VXORPD       X7, X7, X7
	START

loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (SI)(BX*8), Y1
	DERIV
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y2, (DI)(BX*8)

	// Θ numerator: φ_i·(I_i + cn·k_i^I).
	VMULPD Y12, Y2, Y2
	VADDPD Y2, Y1, Y2
	VMULPD (R9)(AX*8), Y2, Y2
	ADDLANES(Y2, X2)
	NEXT

done:
	VZEROUPPER
	VMOVSD X7, ret+136(FP)
	RET

// func stageNextAVX(y, kp, ko, lam, phi []float64, c, alpha, theta, e1, e2, cn float64) float64
TEXT ·stageNextAVX(SB), NOSPLIT, $0-176
	MOVQ         y_base+0(FP), SI
	MOVQ         kp_base+24(FP), DI
	MOVQ         ko_base+48(FP), R10
	MOVQ         lam_base+72(FP), R8
	MOVQ         lam_len+80(FP), BX
	MOVQ         phi_base+96(FP), R9
	VBROADCASTSD c+120(FP), Y13
	VBROADCASTSD alpha+128(FP), Y8
	VBROADCASTSD theta+136(FP), Y9
	VBROADCASTSD e1+144(FP), Y10
	VBROADCASTSD e2+152(FP), Y11
	VBROADCASTSD cn+160(FP), Y12
	VXORPD       X7, X7, X7
	START

loop:
	// The stage state y + c·kp.
	VMULPD (DI)(AX*8), Y13, Y0
	VADDPD (SI)(AX*8), Y0, Y0
	VMULPD (DI)(BX*8), Y13, Y1
	VADDPD (SI)(BX*8), Y1, Y1
	DERIV
	VMOVUPD Y3, (R10)(AX*8)
	VMOVUPD Y2, (R10)(BX*8)

	// Θ numerator: φ_i·(I_i + cn·k_i^I), from y's I_i.
	VMULPD Y12, Y2, Y2
	VADDPD (SI)(BX*8), Y2, Y2
	VMULPD (R9)(AX*8), Y2, Y2
	ADDLANES(Y2, X2)
	NEXT

done:
	VZEROUPPER
	VMOVSD X7, ret+168(FP)
	RET

// COMBINE writes ((((y + h/6·k1) + h/3·k2) + h/3·k3) + h/6·K) to dst at
// index I, with y, k1, k2, k3 and dst at SI, DI, R9, R10 and R11, h/6 = Y12
// and h/3 = Y14, and leaves it in Y4. Y5 is scratch; it overwrites K.
#define COMBINE(I, K) \
	VMULPD  (DI)(I*8), Y12, Y4; \
	VADDPD  (SI)(I*8), Y4, Y4; \
	VMULPD  (R9)(I*8), Y14, Y5; \
	VADDPD  Y5, Y4, Y4; \
	VMULPD  (R10)(I*8), Y14, Y5; \
	VADDPD  Y5, Y4, Y4; \
	VMULPD  Y12, K, K; \
	VADDPD  K, Y4, Y4; \
	VMOVUPD Y4, (R11)(I*8)

// FINITE adds Y4 − Y4 to the finiteness accumulator Y15: like the Go
// loop's v·0, it is 0 for a finite v and NaN otherwise. Lane order does not
// matter here, since the sum is 0 or NaN.
#define FINITE \
	VSUBPD Y4, Y4, Y5; \
	VADDPD Y5, Y15, Y15

// func stageLastAVX(y, k1, k2, k3, dst, lam, phi []float64, h, alpha, theta, e1, e2, h6, h3 float64) (num, fin float64)
TEXT ·stageLastAVX(SB), NOSPLIT, $0-240
	MOVQ         y_base+0(FP), SI
	MOVQ         k1_base+24(FP), DI
	MOVQ         k2_base+48(FP), R9
	MOVQ         k3_base+72(FP), R10
	MOVQ         dst_base+96(FP), R11
	MOVQ         lam_base+120(FP), R8
	MOVQ         lam_len+128(FP), BX
	MOVQ         phi_base+144(FP), R12
	VBROADCASTSD h+168(FP), Y13
	VBROADCASTSD alpha+176(FP), Y8
	VBROADCASTSD theta+184(FP), Y9
	VBROADCASTSD e1+192(FP), Y10
	VBROADCASTSD e2+200(FP), Y11
	VBROADCASTSD h6+208(FP), Y12
	VBROADCASTSD h3+216(FP), Y14
	VXORPD       Y7, Y7, Y7
	VXORPD       Y15, Y15, Y15
	START

loop:
	// The stage state y + h·k3.
	VMULPD (R10)(AX*8), Y13, Y0
	VADDPD (SI)(AX*8), Y0, Y0
	VMULPD (R10)(BX*8), Y13, Y1
	VADDPD (SI)(BX*8), Y1, Y1
	DERIV
	COMBINE(AX, Y3)
	FINITE
	COMBINE(BX, Y2)
	FINITE

	// The next step's Θ numerator: φ_i·I_i of dst.
	VMULPD (R12)(AX*8), Y4, Y5
	ADDLANES(Y5, X5)
	NEXT

done:
	// Fold the finiteness lanes.
	VEXTRACTF128 $1, Y15, X5
	VADDPD       X5, X15, X15
	VPERMILPD    $1, X15, X5
	VADDSD       X5, X15, X15
	VZEROUPPER
	VMOVSD       X7, num+224(FP)
	VMOVSD       X15, fin+232(FP)
	RET
