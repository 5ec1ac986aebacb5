//go:build !purego

#include "textflag.h"

// func prefetch(e *affineCached)
TEXT ·prefetch(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ       e+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	PREFETCHT0 119(AX)
	RET
