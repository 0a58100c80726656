#include "textflag.h"

// The amd64 body of the float64 L1 kernel (l1Kernel64 in
// kernels_amd64.go), SSE2 only: the amd64 baseline, so it needs no CPU
// check. It reproduces l1Kernel[float64] bit for bit (docs/KERNELS.md
// "Stopping early"):
//
//   - X0 holds the lanes (s0, s1) and X1 holds (s2, s3), so each lane
//     sums the coordinates l1Kernel's accumulator of the same name does,
//     in the same order;
//   - ANDPD with 0x7FF…F clears the sign bit, which is math.Abs bit for
//     bit, NaN payload included;
//   - every 32 coordinates the partial is merged as (s0+s1)+(s2+s3);
//   - the tail past the last group of 4 goes into s0.
//
// Where two NaNs meet in an add, x86 keeps the payload of the add's
// destination operand. Each add below takes the destination the default
// build of the generic kernel does, so a NaN result keeps its payload
// too: the accumulator in the 32-wide windows and the tail, the new term
// in the groups of 4, (s0+s1) in the window's merge and (s2+s3) in the
// final one. TestL1KernelAsmMatchesGeneric and FuzzWithinKernels hold
// this body to l1Kernel[float64].

// L1PAIR adds |x-y| of the two coordinates at off into the lane pair
// acc, the accumulator taking the sum.
#define L1PAIR(off, acc) \
	MOVUPD	off(SI), X2 \
	MOVUPD	off(DI), X3 \
	SUBPD	X3, X2 \
	ANDPD	X6, X2 \
	ADDPD	X2, acc

// L1WINDOW4 is one group of 4 coordinates of a 32-wide window.
#define L1WINDOW4(off) \
	L1PAIR(off, X0) \
	L1PAIR(off+16, X1)

// L1MERGE leaves s0+s1 in X2 and s2+s3 in X4, each sum taking the
// first-named lane as its destination.
#define L1MERGE \
	MOVAPD	X0, X2 \
	MOVAPD	X0, X3 \
	UNPCKHPD	X3, X3 \
	ADDSD	X3, X2 \
	MOVAPD	X1, X4 \
	MOVAPD	X1, X5 \
	UNPCKHPD	X5, X5 \
	ADDSD	X5, X4

// func l1SSE2(x, y []float64, stop float64) float64
TEXT ·l1SSE2(SB), NOSPLIT, $0-64
	MOVQ	x_base+0(FP), SI
	MOVQ	x_len+8(FP), CX
	MOVQ	y_base+24(FP), DI
	MOVSD	stop+48(FP), X7
	MOVQ	$0x7FFFFFFFFFFFFFFF, AX
	MOVQ	AX, X6
	PUNPCKLQDQ	X6, X6
	XORPD	X0, X0
	XORPD	X1, X1
	CMPQ	CX, $32
	JLT	groups

window:
	L1WINDOW4(0)
	L1WINDOW4(32)
	L1WINDOW4(64)
	L1WINDOW4(96)
	L1WINDOW4(128)
	L1WINDOW4(160)
	L1WINDOW4(192)
	L1WINDOW4(224)
	ADDQ	$256, SI
	ADDQ	$256, DI
	SUBQ	$32, CX
	L1MERGE
	ADDSD	X4, X2
	UCOMISD	X7, X2
	JHI	stopped
	CMPQ	CX, $32
	JGE	window

groups:
	CMPQ	CX, $4
	JLT	tail

group:
	MOVUPD	(SI), X2
	MOVUPD	(DI), X3
	SUBPD	X3, X2
	ANDPD	X6, X2
	ADDPD	X0, X2
	MOVAPD	X2, X0
	MOVUPD	16(SI), X4
	MOVUPD	16(DI), X5
	SUBPD	X5, X4
	ANDPD	X6, X4
	ADDPD	X1, X4
	MOVAPD	X4, X1
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	CMPQ	CX, $4
	JGE	group

tail:
	TESTQ	CX, CX
	JEQ	done

tailloop:
	MOVSD	(SI), X2
	MOVSD	(DI), X3
	SUBSD	X3, X2
	ANDPD	X6, X2
	ADDSD	X2, X0
	ADDQ	$8, SI
	ADDQ	$8, DI
	DECQ	CX
	JNZ	tailloop

done:
	L1MERGE
	ADDSD	X2, X4
	MOVSD	X4, ret+56(FP)
	RET

stopped:
	MOVSD	X2, ret+56(FP)
	RET

// func prefetchLines(p unsafe.Pointer, n uintptr)
//
// PREFETCHT0 over every 64-byte line of [p, p+n), n > 0.
TEXT ·prefetchLines(SB), NOSPLIT, $0-16
	MOVQ	p+0(FP), AX
	MOVQ	n+8(FP), CX
	LEAQ	-1(AX)(CX*1), CX

line:
	PREFETCHT0	(AX)
	ADDQ	$64, AX
	CMPQ	AX, CX
	JLS	line
	PREFETCHT0	(CX)
	RET
