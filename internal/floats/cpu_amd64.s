#include "textflag.h"

// func cpuAVX() bool
//
// AVX code may run when CPUID leaf 1 reports AVX (ECX bit 28) and OSXSAVE
// (ECX bit 27), and XCR0 says the OS saves the SSE and AVX register state
// (bits 1 and 2).
TEXT ·cpuAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
