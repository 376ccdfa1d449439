// Package badlayer states a layer the import DAG does not have.
//
//dsmclint:layer nosuch
package badlayer // want "layering: unknown layer .nosuch."
