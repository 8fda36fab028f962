// Package suppress exercises the countnet directive grammar.
//
//countnet:deterministic
//countnet:lockorder T.a < T.b
package suppress

import "sync"

// T carries two ordered locks.
type T struct {
	a, b sync.Mutex
}

// both carries two directives on one comment line.
//
//countnet:hotpath //countnet:coldpath
func both() {}

var _ = both

// mistyped carries a typoed verb: a diagnostic, never a silent no-op.
//
//countnet:hotpathh // want `unknown countnet directive "hotpathh"`
func mistyped() {}

var _ = mistyped
