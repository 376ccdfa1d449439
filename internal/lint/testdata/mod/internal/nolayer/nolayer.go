// Package nolayer is an internal package that states no layer.
package nolayer // want "layering: package dsmc/internal/nolayer has no layer"
