// Package layering declares itself a kernel-layer package — the layer
// allowed to import only the pure math leaves (collide, rng) — and then
// imports above its station. A layer directive outside the package doc
// comment states nothing: it is a finding, and the package stays in its
// layer.
//
//dsmclint:layer kernel
package layering

import (
	"dsmc/internal/rng" // allowed: kernel may import rng
	"dsmc/internal/sim" // want "layering: package in layer .kernel. may not import dsmc/internal/sim"
)

// Use keeps both imports referenced.
//
//dsmclint:layer cmd // want "dsmclint: //dsmclint:layer states nothing outside the package doc comment"
func Use() {
	var cfg sim.Config
	_ = cfg
	_ = rng.NewStream(1)
}
