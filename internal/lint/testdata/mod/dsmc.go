// Package dsmc is the root of a module of its own: its packages are not
// fixtures to the suite, so they meet the rules as the repository's own
// packages do. The root states no layer, which is a finding.
package dsmc // want "layering: package dsmc has no layer"
