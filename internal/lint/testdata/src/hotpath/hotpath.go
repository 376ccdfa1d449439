// Package hotpath seeds every allocation source the hotpath-alloc rule
// flags inside //dsmc:hotpath functions, the preallocation idioms it
// must accept, and the fact comments that are findings themselves.
//
//dsmclint:scope hotpath-alloc
package hotpath

// Step is the annotated hot function: everything below allocates.
//
//dsmc:hotpath
func Step(dst []float64, n int) []float64 {
	buf := make([]float64, n) // want "hotpath-alloc: make in hot path Step"
	p := new(int)             // want "hotpath-alloc: new in hot path Step"
	_ = p
	f := func() int { return n } // want "hotpath-alloc: closure literal in hot path Step"
	_ = f
	dst = append(dst, buf...) // want "hotpath-alloc: append onto a slice Step did not preallocate"
	return dst
}

// Preallocated shows the accepted idioms: a [:0] reslice of an existing
// buffer and an append chain that keeps the status. No findings.
//
//dsmc:hotpath
func Preallocated(scratch []float64, x float64) []float64 {
	out := scratch[:0]
	out = append(out, x)
	out = append(out, x*2)
	return out
}

// Cold is unannotated: the rule ignores it entirely.
func Cold(n int) []float64 {
	buf := make([]float64, 0, n)
	return append(buf, 1)
}

// Misspelled names no fact: it is a finding, and Misspelled's
// allocation goes unchecked until it is fixed.
//
//dsmc:hotpth // want "dsmclint: unknown fact //dsmc:hotpth"
func Misspelled(n int) []float64 {
	return make([]float64, n)
}

// A fact outside a function's doc comment declares nothing.
//
//dsmc:hotpath // want "dsmclint: //dsmc:hotpath declares nothing outside a function's doc comment"
type Buffer []float64
