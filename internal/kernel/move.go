package kernel

// Advance2 is the 2D collisionless motion over equal-length column
// slices, x[i] += u[i], y[i] += v[i], blocked Width lanes at a time; the
// per-element arithmetic is exactly the scalar x += u. The step does not
// call it (each domain's Move advances, bounds and indexes a particle in
// one loop): outside tests its one caller is the benchmark's
// kernel.advance2_ns probe, and ROADMAP item 2(a) removes that probe and
// this function with it.
//
//dsmc:hotpath
func Advance2[F Float](x, y, u, v []F) {
	n := len(x)
	_, _, _ = y[:n], u[:n], v[:n]
	i := 0
	for ; i+Width <= n; i += Width {
		xb, ub := (*[Width]F)(x[i:]), (*[Width]F)(u[i:])
		for k := 0; k < Width; k++ {
			xb[k] += ub[k]
		}
		yb, vb := (*[Width]F)(y[i:]), (*[Width]F)(v[i:])
		for k := 0; k < Width; k++ {
			yb[k] += vb[k]
		}
	}
	for ; i < n; i++ {
		x[i] += u[i]
		y[i] += v[i]
	}
}
