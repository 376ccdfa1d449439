// Package leaf states its layer: no finding.
//
//dsmclint:layer leaf
package leaf
