package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// The layering rule machine-checks the package import DAG. Each package
// states its named layer in its package doc comment (//dsmclint:layer
// <name>); a layer carries the exact set of internal packages it may
// import directly. The load-bearing edges this pins:
//
//   - kernel stays a leaf over the pure math packages (collide, rng) —
//     the width-grouped loops must never grow a dependency on the
//     engine, stores, or orchestration above them;
//   - engine never imports sim/sim3/run/ckpt — the pipeline cannot know
//     its adapters, or the unification collapses;
//   - examples import no internal package at all — they are the public
//     API contract surface (this replaces the old CI grep).
//
// A new internal package fails the rule until it states its layer:
// declaring its place in the DAG is part of adding it. Packages under
// cmd/ and examples/ take those layers from their path.
var layerAllows = map[string][]string{
	// leaf: no internal imports.
	"leaf": {},
	// physics: the collision exchange over molecule constants.
	"physics": {"dsmc/internal/molec", "dsmc/internal/rng"},
	// kernel: width-grouped inner loops over pure math only.
	"kernel": {"dsmc/internal/collide", "dsmc/internal/rng"},
	// storage: the particle store.
	"storage": {"dsmc/internal/collide", "dsmc/internal/kernel", "dsmc/internal/rng"},
	// par: worker pool + fused cell sort.
	"par": {"dsmc/internal/kernel", "dsmc/internal/particle", "dsmc/internal/rng"},
	// geometry: domains and grids.
	"geom": {"dsmc/internal/rng"},
	"grid": {"dsmc/internal/geom"},
	// sampling: moment accumulation and field derivation.
	"sample": {"dsmc/internal/grid", "dsmc/internal/kernel", "dsmc/internal/particle", "dsmc/internal/phys"},
	// baseline: the comparator collision schemes (Bird, Nanbu, …) — run by
	// -exp relax and the benchmarks, imported by no simulation package.
	"baseline": {"dsmc/internal/collide", "dsmc/internal/rng"},
	// frame: the one binary frame (words, columns, CRC trailer, bounded
	// reader) of checkpoints and replica outputs. A leaf so that ckpt and
	// store, which sit on different branches of the DAG, can share it
	// without either importing the other or anything of the engine.
	"frame": {},
	// store: the content-addressed result store — artifact bytes, keys
	// and codecs over the filesystem plus the obs telemetry leaf. It
	// knows nothing of specs or scheduling: key derivation lives in run,
	// so the store can sit below run, coord and the public package alike.
	"store": {"dsmc/internal/frame", "dsmc/internal/obs"},
	// obs: the metrics registry — a leaf importable from the engine up
	// (engine, coord, run, cmd), never from the compute layers below
	// (kernel, par, particle): the width-grouped loops and the store
	// must stay instrumentation-free so their cost model owes nothing
	// to telemetry.
	"obs": {},
	// engine: the unified pipeline — everything below it, nothing above.
	"engine": {
		"dsmc/internal/collide", "dsmc/internal/kernel", "dsmc/internal/obs",
		"dsmc/internal/par", "dsmc/internal/particle", "dsmc/internal/rng",
		"dsmc/internal/sample",
	},
	// ckpt: engine-state serialization.
	"ckpt": {
		"dsmc/internal/collide", "dsmc/internal/engine", "dsmc/internal/frame",
		"dsmc/internal/kernel", "dsmc/internal/particle", "dsmc/internal/rng",
		"dsmc/internal/sample",
	},
	// backends: geometry+config adapters over the engine.
	"sim": {
		"dsmc/internal/ckpt", "dsmc/internal/collide", "dsmc/internal/engine",
		"dsmc/internal/geom", "dsmc/internal/grid", "dsmc/internal/kernel",
		"dsmc/internal/molec", "dsmc/internal/par", "dsmc/internal/particle",
		"dsmc/internal/phys", "dsmc/internal/rng",
	},
	"sim3": {
		"dsmc/internal/ckpt", "dsmc/internal/collide", "dsmc/internal/engine",
		"dsmc/internal/kernel", "dsmc/internal/molec", "dsmc/internal/par",
		"dsmc/internal/particle", "dsmc/internal/phys", "dsmc/internal/rng",
	},
	// cm: the instrumented Connection Machine emulation and its adapter.
	"cm": {"dsmc/internal/par"},
	"cmsim": {
		"dsmc/internal/cm", "dsmc/internal/fixed", "dsmc/internal/geom",
		"dsmc/internal/grid", "dsmc/internal/rng", "dsmc/internal/sim",
	},
	// golden: FNV bit-identity pinning over both backends.
	"golden": {"dsmc/internal/kernel", "dsmc/internal/obs", "dsmc/internal/sim", "dsmc/internal/sim3"},
	// run: job forest, aggregation, checkpoint/memoization orchestration.
	"run": {
		"dsmc/internal/ckpt", "dsmc/internal/grid", "dsmc/internal/kernel",
		"dsmc/internal/rng", "dsmc/internal/sample", "dsmc/internal/sim",
		"dsmc/internal/sim3", "dsmc/internal/store",
	},
	// coord: the distributed-sweep coordinator and pull-worker. It sits
	// ABOVE the public package — jobs are enumerated, run and assembled
	// through the dsmc distribution surface — so the only internal
	// packages it may reach are the obs telemetry leaf, the result store
	// it memoizes dispatch against, and run for two things only: the job
	// table (run.Table, the state machine the in-process executor drives)
	// and the checkpoint files (run.FileCkptStore at run.JobCkptPath, the
	// executor's own). That keeps the wire protocol honest (a worker
	// process has exactly the information an API client has, plus its own
	// instruments — the store, the table and the checkpoint files are
	// coordinator-side).
	"coord": {"dsmc/internal/obs", "dsmc/internal/run", "dsmc/internal/store"},
	// root: the public dsmc package — composes backends and run, but
	// never reaches under engine's hood directly.
	"root": {
		"dsmc/internal/cmsim", "dsmc/internal/geom", "dsmc/internal/grid",
		"dsmc/internal/molec", "dsmc/internal/phys", "dsmc/internal/run",
		"dsmc/internal/sample", "dsmc/internal/sim", "dsmc/internal/sim3",
		"dsmc/internal/store",
	},
	// cmd: developer/server binaries may reach anything.
	"cmd": {"*"},
	// examples: the public-API contract surface — no internal imports.
	"examples": {},
}

// Layering enforces the import DAG declared above.
type Layering struct{}

// Name implements Rule.
func (Layering) Name() string { return "layering" }

// Doc implements Rule.
func (Layering) Doc() string {
	return "package imports stay inside the declared layer DAG (kernel leaf-only, engine below sim/run, examples public-only)"
}

// Check implements Rule.
func (l Layering) Check(pkg *Package) []Diagnostic {
	// The package-level findings sit at the first file's package clause:
	// there is no single import to blame.
	clause := pkg.Fset.Position(pkg.Files[0].Name.Pos())
	layer := pkg.dirs.layer
	if layer == "" && !pkg.underTestdata() {
		switch zone := strings.TrimPrefix(pkg.Path, pkg.mod.path); {
		case strings.HasPrefix(zone, "/cmd/"):
			layer = "cmd"
		case strings.HasPrefix(zone, "/examples/"):
			layer = "examples"
		case zone == "" || strings.HasPrefix(zone, "/internal/"):
			return []Diagnostic{{clause, l.Name(),
				fmt.Sprintf("package %s has no layer: declare its place in the import DAG with //dsmclint:layer <name> in its package doc comment", pkg.Path)}}
		}
	}
	if layer == "" {
		return nil // fixtures that state no layer, and packages outside the layered zones
	}
	allowed, ok := layerAllows[layer]
	if !ok {
		return []Diagnostic{{clause, l.Name(), fmt.Sprintf("unknown layer %q", layer)}}
	}
	allowAll := len(allowed) == 1 && allowed[0] == "*"
	allowSet := map[string]bool{}
	for _, a := range allowed {
		allowSet[a] = true
	}
	var out []Diagnostic
	check := func(spec *ast.ImportSpec) {
		path := importPath(spec)
		if !strings.HasPrefix(path, "dsmc/internal/") || allowAll || allowSet[path] {
			return
		}
		// The suite's own fixtures import module packages to seed
		// violations; only the declared layer constrains them.
		msg := fmt.Sprintf("package in layer %q may not import %s", layer, path)
		if len(allowed) == 0 {
			msg += " (the layer imports no internal packages)"
		} else {
			msg += fmt.Sprintf(" (allowed: %s)", strings.Join(allowed, ", "))
		}
		out = append(out, Diagnostic{pkg.Fset.Position(spec.Pos()), l.Name(), msg})
	}
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			check(spec)
		}
	}
	return out
}
