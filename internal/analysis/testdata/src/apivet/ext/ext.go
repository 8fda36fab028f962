// Package ext is a nested module, the way a benchmark module sits in
// its parent: its references count.
package ext

import "apivetmod/internal/lib"

func Use() { lib.CalledByExt() }
