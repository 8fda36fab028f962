// Package fix sits under testdata: its exported declarations are not
// judged and its references do not count.
package fix

import "apivetmod/internal/lib"

func Unused() { lib.OnlyTestdata() }
