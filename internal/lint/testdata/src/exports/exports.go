// Package exports seeds what the exports rule reports — exported
// identifiers of every kind that no non-test code uses, and a function
// only such code calls — and what it accepts: a method reached through
// an interface, a constant that keeps its iota type, a waived oracle and
// what the oracle calls. A waiver with nothing to waive is stale.
//
//dsmclint:scope exports
package exports

func Uncalled() {} // want "exports: exports.Uncalled is exported but no non-test code uses it"

type used struct{}

func (used) Method() {} // want "exports: exports.used.Method is exported"

var _ = used{}

const Limit = 3 // want "exports: exports.Limit is exported"

var Default = 2 // want "exports: exports.Default is exported"

type Unused struct{} // want "exports: exports.Unused is exported"

type Alias = used // want "exports: exports.Alias is exported"

// Kind is named only in the first line of its constant block.
type Kind int

const (
	KindA Kind = iota // want "exports: exports.KindA is exported"
	KindB
)

var _ = KindB

// label's Name is called only through namer.
type label struct{}

func (label) Name() string { return "label" }

type namer interface{ Name() string }

func describe(n namer) string { return n.Name() }

var _ = describe(label{})

// Dead is uncalled, so Helper, which only Dead calls, is too.
func Dead() int { return Helper() } // want "exports: exports.Dead is exported"

func Helper() int { return 1 } // want "exports: exports.Helper is exported"

// Oracle is kept for the tests; OracleHelper is used by it.
//
//dsmclint:allow exports the oracle this fixture's tests would judge by
func Oracle() int { return OracleHelper() }

func OracleHelper() int { return 1 }

//dsmclint:allow exports nothing to waive: Called has a caller // want "dsmclint: stale waiver: no .exports. finding"
func Called() int { return 2 }

var _ = Called()
