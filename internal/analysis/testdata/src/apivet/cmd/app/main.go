// Command app is the non-test code that reaches lib's API.
package main

import (
	"fmt"

	"apivetmod/internal/lib"
)

func main() {
	lib.CalledByApp()
	fmt.Println(lib.Named{})
	var d lib.Doer = &lib.Impl{}
	d.Do()
	b := &lib.Box[int]{}
	fmt.Println(b.Cap())
}
