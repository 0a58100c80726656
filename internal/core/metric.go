package core

import (
	"errors"
	"fmt"
	"math"
	"unicode/utf8"
)

// Metric is a distance function over Objects. Implementations must satisfy
// the four metric axioms (symmetry, non-negativity, identity, triangle
// inequality) for the pivot-filtering lemmas to be correct.
type Metric interface {
	// Distance returns d(a, b). It panics if the objects have a type the
	// metric does not understand; that is a programming error, not a
	// runtime condition.
	Distance(a, b Object) float64
	// Name identifies the metric in logs and experiment output.
	Name() string
	// Discrete reports whether the metric only returns integer-valued
	// distances. BKT and FQT require a discrete metric.
	Discrete() bool
}

// ErrNotDiscrete is what a constructor that needs a discrete metric (BKT,
// FQT, FQA) wraps when given a continuous one.
var ErrNotDiscrete = errors.New("metric is not discrete")

// L1 is the Manhattan distance over Vector objects (the paper uses it for
// the Color dataset).
type L1 struct{}

// Distance returns the L1-norm distance between two Vectors (or two
// Vector32s). It delegates to the shared batch kernel, so scalar and
// batched calls agree bit for bit.
func (L1) Distance(a, b Object) float64 {
	if x, ok := a.(Vector32); ok {
		y := b.(Vector32)
		checkDim("L1", len(x), len(y))
		return l1Kernel(x, y, math.Inf(1))
	}
	x, y := a.(Vector), b.(Vector)
	checkDim("L1", len(x), len(y))
	return l1Kernel64(x, y, math.Inf(1))
}

// Name returns "L1".
func (L1) Name() string { return "L1" }

// Discrete reports false: L1 over float coordinates is continuous.
func (L1) Discrete() bool { return false }

// L2 is the Euclidean distance over Vector objects (the paper uses it for
// the LA dataset).
type L2 struct{}

// Distance returns the Euclidean distance between two Vectors (or two
// Vector32s). It delegates to the shared batch kernel — squared
// accumulation with the sqrt deferred past the loop — so scalar and
// batched calls agree bit for bit.
func (L2) Distance(a, b Object) float64 {
	if x, ok := a.(Vector32); ok {
		y := b.(Vector32)
		checkDim("L2", len(x), len(y))
		return math.Sqrt(l2SqKernel(x, y, math.Inf(1)))
	}
	x, y := a.(Vector), b.(Vector)
	checkDim("L2", len(x), len(y))
	return math.Sqrt(l2SqKernel(x, y, math.Inf(1)))
}

// Name returns "L2".
func (L2) Name() string { return "L2" }

// Discrete reports false.
func (L2) Discrete() bool { return false }

// LInf is the Chebyshev (L∞) distance over Vector objects.
type LInf struct{}

// Distance returns the maximum per-coordinate difference between two
// Vectors (or two Vector32s), via the shared batch kernel.
func (LInf) Distance(a, b Object) float64 {
	if x, ok := a.(Vector32); ok {
		y := b.(Vector32)
		checkDim("Linf", len(x), len(y))
		return linfKernel(x, y, math.Inf(1))
	}
	x, y := a.(Vector), b.(Vector)
	checkDim("Linf", len(x), len(y))
	return linfKernel(x, y, math.Inf(1))
}

// Name returns "Linf".
func (LInf) Name() string { return "Linf" }

// Discrete reports false.
func (LInf) Discrete() bool { return false }

// Lp is the general Minkowski distance of order P (P >= 1) over Vectors.
type Lp struct {
	// P is the norm order; P=1 and P=2 behave like L1 and L2.
	P float64
}

// Distance returns the Lp-norm distance between two Vectors. Integer
// orders take multiplication fast paths — P=1 and P=2 reuse the L1/L2
// kernels, P=3 cubes by multiplication — and only the final root (hoisted
// out of the loop) pays a math.Pow/Cbrt. Fractional orders fall back to
// the general per-coordinate math.Pow.
func (m Lp) Distance(a, b Object) float64 {
	x, y := a.(Vector), b.(Vector)
	checkDim("Lp", len(x), len(y))
	switch m.P {
	case 1:
		return l1Kernel64(x, y, math.Inf(1))
	case 2:
		return math.Sqrt(l2SqKernel(x, y, math.Inf(1)))
	case 3:
		var s float64
		for i := range x {
			d := math.Abs(x[i] - y[i])
			s += d * d * d
		}
		return math.Cbrt(s)
	}
	var s float64
	for i := range x {
		s += math.Pow(math.Abs(x[i]-y[i]), m.P)
	}
	return math.Pow(s, 1/m.P)
}

// Name returns "Lp" annotated with the order.
func (m Lp) Name() string { return fmt.Sprintf("L%.3g", m.P) }

// Discrete reports false.
func (Lp) Discrete() bool { return false }

// IntLInf is the Chebyshev distance over IntVector objects. It is
// integer-valued, so it qualifies as a discrete metric for BKT and FQT
// (the paper's Synthetic dataset uses it).
type IntLInf struct{}

// Distance returns the maximum per-coordinate absolute difference, via
// the shared batch kernel.
func (IntLInf) Distance(a, b Object) float64 {
	x, y := a.(IntVector), b.(IntVector)
	checkDim("IntLinf", len(x), len(y))
	return intLinfKernel(x, y)
}

// Name returns "IntLinf".
func (IntLInf) Name() string { return "IntLinf" }

// Discrete reports true.
func (IntLInf) Discrete() bool { return true }

// Edit is the Levenshtein edit distance over Word objects (the paper uses
// it for the Words dataset). It is integer-valued and therefore discrete.
type Edit struct{}

// Distance returns the minimum number of single-character insertions,
// deletions, and substitutions transforming one word into the other.
func (Edit) Distance(a, b Object) float64 {
	s, t := string(a.(Word)), string(b.(Word))
	return float64(editDistance(s, t))
}

// Name returns "edit".
func (Edit) Name() string { return "edit" }

// Discrete reports true.
func (Edit) Discrete() bool { return true }

// editDistance is a two-row dynamic program with an early-exit fast path
// for equal strings. The unit of editing is the rune, not the byte: a
// byte-wise DP would charge 2 edits for replacing a multi-byte character
// (d("café", "cafe") must be 1, not 2).
func editDistance(s, t string) int {
	if s == t {
		return 0
	}
	if isASCII(s) && isASCII(t) {
		return editDistanceASCII(s, t)
	}
	return editDistanceRunes([]rune(s), []rune(t))
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// editDistanceASCII runs the DP directly over the bytes — for ASCII input
// bytes and runes coincide, so no conversion is needed on the hot path.
func editDistanceASCII(s, t string) int {
	if len(s) == 0 {
		return len(t)
	}
	if len(t) == 0 {
		return len(s)
	}
	// Keep the shorter string as the row to bound memory.
	if len(s) < len(t) {
		s, t = t, s
	}
	prev := make([]int, len(t)+1)
	cur := make([]int, len(t)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(s); i++ {
		cur[0] = i
		si := s[i-1]
		for j := 1; j <= len(t); j++ {
			cost := 1
			if si == t[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost // substitution
			if d := prev[j] + 1; d < m {
				m = d // deletion
			}
			if d := cur[j-1] + 1; d < m {
				m = d // insertion
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(t)]
}

// editDistanceRunes is the same DP over decoded runes.
func editDistanceRunes(s, t []rune) int {
	if len(s) == 0 {
		return len(t)
	}
	if len(t) == 0 {
		return len(s)
	}
	if len(s) < len(t) {
		s, t = t, s
	}
	prev := make([]int, len(t)+1)
	cur := make([]int, len(t)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(s); i++ {
		cur[0] = i
		si := s[i-1]
		for j := 1; j <= len(t); j++ {
			cost := 1
			if si == t[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost // substitution
			if d := prev[j] + 1; d < m {
				m = d // deletion
			}
			if d := cur[j-1] + 1; d < m {
				m = d // insertion
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(t)]
}

// checkDim validates one pair (or one batch entry) and names the metric
// in the panic so a mismatch is attributable without a stack dive.
func checkDim(metric string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("core: %s: dimensionality mismatch %d vs %d", metric, a, b))
	}
}
