#include "textflag.h"

// func hasAVX2() bool
//
// CPUID leaf 1 must report OSXSAVE (ECX bit 27) and AVX (bit 28), XGETBV
// must show the OS saving XMM and YMM state (XCR0 bits 1 and 2), and leaf 7
// must exist and report AVX2 (EBX bit 5).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JLT    done
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    done
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    done
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	SHRL   $5, BX
	ANDL   $1, BX
	MOVB   BX, ret+0(FP)
done:
	RET
