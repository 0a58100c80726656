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

// L1PAIR adds |x-y| of the two coordinates at offset off into the lane
// pair acc, the accumulator taking the sum.
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

// func sadSSE2(x, y []uint8) uint64
//
// The sum of |x[i]-y[i]| over bytes, len(x) a positive multiple of 16
// (docs/KERNELS.md "The coded mirror"). PSADBW sums the absolute
// differences of each 8-byte half of two registers into the low 16 bits
// of that half's quadword, exactly; PADDQ adds them into two
// accumulators (X0 for even groups of 16, X4 for odd ones), whose four
// quadwords are summed at the end. A sum never exceeds 255 per byte, so
// no lane can overflow.
TEXT ·sadSSE2(SB), NOSPLIT, $0-56
	MOVQ	x_base+0(FP), SI
	MOVQ	x_len+8(FP), CX
	MOVQ	y_base+24(FP), DI
	PXOR	X0, X0
	PXOR	X4, X4
	CMPQ	CX, $32
	JLT	single

pair:
	MOVOU	(SI), X1
	MOVOU	(DI), X2
	PSADBW	X2, X1
	PADDQ	X1, X0
	MOVOU	16(SI), X3
	MOVOU	16(DI), X5
	PSADBW	X5, X3
	PADDQ	X3, X4
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$32, CX
	CMPQ	CX, $32
	JGE	pair

single:
	TESTQ	CX, CX
	JEQ	sum
	MOVOU	(SI), X1
	MOVOU	(DI), X2
	PSADBW	X2, X1
	PADDQ	X1, X0

sum:
	PADDQ	X4, X0
	MOVQ	X0, AX
	PSHUFD	$0x4E, X0, X0
	MOVQ	X0, BX
	ADDQ	BX, AX
	MOVQ	AX, ret+48(FP)
	RET

// The two column passes of the pivot table's scan, SSE2 too, both exact
// by the operand rules of the packed instructions (docs/KERNELS.md
// "Columns and the sweep" and "Zone bounds").

// KEEP2 turns the two distances d holds into their keep masks, using t:
// !(hi < d) AND !(d < lo), CMPPD predicate 5 (NLT), which is true on
// unordered operands. That is PruneObject's !(d > hi || d < lo), a NaN
// on either side keeping the row. X8 holds hi and X9 lo, broadcast.
#define KEEP2(d, t) \
	MOVAPD	X8, t \
	CMPPD	d, t, $5 \
	CMPPD	X9, d, $5 \
	ANDPD	t, d

// func keepMaskSSE2(col []float64, hi, lo float64) uint64
//
// Bit i of the result keeps row i of col; len(col) is a positive
// multiple of 8, at most 64. Each group of 8 rows makes 8 bits, shifted
// to the group's place by CX.
TEXT ·keepMaskSSE2(SB), NOSPLIT, $0-48
	MOVQ	col_base+0(FP), SI
	MOVQ	col_len+8(FP), BX
	MOVSD	hi+24(FP), X8
	UNPCKLPD	X8, X8
	MOVSD	lo+32(FP), X9
	UNPCKLPD	X9, X9
	XORQ	DX, DX
	XORQ	CX, CX

group:
	MOVUPD	(SI), X0
	MOVUPD	16(SI), X1
	MOVUPD	32(SI), X2
	MOVUPD	48(SI), X3
	KEEP2(X0, X4)
	KEEP2(X1, X5)
	KEEP2(X2, X6)
	KEEP2(X3, X7)
	MOVMSKPD	X0, AX
	MOVMSKPD	X1, R8
	SHLQ	$2, R8
	ORQ	R8, AX
	MOVMSKPD	X2, R8
	SHLQ	$4, R8
	ORQ	R8, AX
	MOVMSKPD	X3, R8
	SHLQ	$6, R8
	ORQ	R8, AX
	SHLQ	CX, AX
	ORQ	AX, DX
	ADDQ	$64, SI
	ADDQ	$8, CX
	SUBQ	$8, BX
	JNZ	group
	MOVQ	DX, ret+40(FP)
	RET

// ZONEGAP raises the lane(s) of lb at (DI) to the zone gaps of the lo at
// (SI) and hi at (DX), q broadcast in X7: g = q-hi and x = lo-q, each
// subtraction's destination its minuend as in Go's; then g > x ? g : x
// and gap > lb ? gap : lb, each a MAX whose destination is the first
// operand — MAX returns its source when the operands are unordered or
// both zero, so both are zoneGapsGo's selections bit for bit. MOV, SUB
// and MAX are MOVUPD, SUBPD and MAXPD for two zones, or MOVSD, SUBSD and
// MAXSD for one.
#define ZONEGAP(MOV, SUB, MAX) \
	MOVAPD	X7, X0 \
	MOV	(DX), X1 \
	SUB	X1, X0 \
	MOV	(SI), X2 \
	SUB	X7, X2 \
	MAX	X2, X0 \
	MOV	(DI), X3 \
	MAX	X3, X0 \
	MOV	X0, (DI)

// func zoneGapsSSE2(lb, lo, hi []float64, q float64)
//
// Two zones a step, then the odd one.
TEXT ·zoneGapsSSE2(SB), NOSPLIT, $0-80
	MOVQ	lb_base+0(FP), DI
	MOVQ	lb_len+8(FP), CX
	MOVQ	lo_base+24(FP), SI
	MOVQ	hi_base+48(FP), DX
	MOVSD	q+72(FP), X7
	UNPCKLPD	X7, X7
	CMPQ	CX, $2
	JLT	odd

pair:
	ZONEGAP(MOVUPD, SUBPD, MAXPD)
	ADDQ	$16, SI
	ADDQ	$16, DX
	ADDQ	$16, DI
	SUBQ	$2, CX
	CMPQ	CX, $2
	JGE	pair

odd:
	TESTQ	CX, CX
	JEQ	done
	ZONEGAP(MOVSD, SUBSD, MAXSD)

done:
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
