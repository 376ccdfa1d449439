package rng

// Perm5 is a permutation of the five relative-velocity components,
// part of the computational state of a particle. It is stored compactly
// (one byte per element) because the CM-2 implementation keeps it in
// per-processor memory alongside the physical state.
type Perm5 [5]uint8

// IdentityPerm5 is the identity permutation.
var IdentityPerm5 = Perm5{0, 1, 2, 3, 4}

// Valid reports whether p is a permutation of {0..4}.
func (p Perm5) Valid() bool {
	var seen [5]bool
	for _, v := range p {
		if v > 4 || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Transpose swaps elements j and k of the permutation, returning the new
// permutation. One such random transposition is performed per collision;
// the paper (citing Aldous–Diaconis) notes n·log n ≈ 10 transpositions
// produce a statistically fresh permutation, and finds one per collision
// sufficient because partner selection supplies additional randomness.
func (p Perm5) Transpose(j, k int) Perm5 {
	p[j], p[k] = p[k], p[j]
	return p
}

// RandomTransposition applies one random transposition chosen from the
// stream: the first element is swapped with a uniformly random element,
// which is the specific scheme described in the paper (transposition of
// the j-th element with the first element).
func (p Perm5) RandomTransposition(r *Stream) Perm5 {
	j := r.Intn(5)
	return p.Transpose(0, j)
}

// perm5Table is the front-end table of all 120 permutations of five
// elements, in lexicographic order. It is an array so that RandomPerm5's
// modulus is a constant.
var perm5Table = func() (t [120]Perm5) {
	n := 0
	var rec func(prefix Perm5, used uint8, depth int)
	rec = func(prefix Perm5, used uint8, depth int) {
		if depth == 5 {
			t[n] = prefix
			n++
			return
		}
		for v := uint8(0); v < 5; v++ {
			if used&(1<<v) == 0 {
				prefix[depth] = v
				rec(prefix, used|1<<v, depth+1)
			}
		}
	}
	rec(Perm5{}, 0, 0)
	return t
}()

// Perm5Table returns a copy of the front-end table of all 120
// permutations of five elements, generated deterministically in
// lexicographic order. The CM-2 implementation initialises particles
// with random rows of this table.
func Perm5Table() []Perm5 {
	t := perm5Table
	return t[:]
}

// Pack encodes the permutation into 15 bits (3 bits per element) so it can
// live in a single int32 field of the data-parallel machine.
func (p Perm5) Pack() int32 {
	var v int32
	for i := 4; i >= 0; i-- {
		v = v<<3 | int32(p[i])
	}
	return v
}

// UnpackPerm5 decodes a permutation packed by Pack. Invalid encodings
// (not a permutation) return the identity, so corrupted state degrades to
// a legal, if less random, collision outcome instead of an invalid one.
func UnpackPerm5(v int32) Perm5 {
	var p Perm5
	for i := 0; i < 5; i++ {
		p[i] = uint8(v>>(3*i)) & 7
	}
	if !p.Valid() {
		return IdentityPerm5
	}
	return p
}

// RandomPerm5 returns a uniformly random permutation drawn via table
// lookup, the initialisation path used for new particles and the draw of
// every collision. The row is r.Uint64() % 120 — the value Intn(120)
// draws — but a constant modulus compiles to a multiply and a shift
// where a variable one is a 64-bit divide.
//
//dsmc:inline
func RandomPerm5(r *Stream) Perm5 {
	return perm5Table[r.Uint64()%uint64(len(perm5Table))]
}
