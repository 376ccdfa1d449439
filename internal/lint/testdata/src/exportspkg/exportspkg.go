// Package exportspkg holds test-only exports under one waiver in its
// doc comment, which covers the rule in the whole package; a doc-comment
// waiver of a rule with no finding in the package is stale.
//
//dsmclint:scope exports
//dsmclint:scope float-eq
//dsmclint:allow float-eq nothing here compares floats // want "dsmclint: stale waiver: no .float-eq. finding in the package"
//dsmclint:allow exports oracles this fixture's tests would judge by
package exportspkg

func Oracle() int { return Limit }

const Limit = 3
