// Package lib declares the exported API apivet judges.
package lib

// OnlyTests is called by lib_test.go alone.
func OnlyTests() {} // want `exported OnlyTests has no non-test reference`

// CalledByApp is called from cmd/app.
func CalledByApp() {}

// CalledByExt is called only from the nested ext module.
func CalledByExt() {}

// OnlyTestdata is called only from a package under testdata.
func OnlyTestdata() {} // want `exported OnlyTestdata has no non-test reference`

// Recursive is called only by itself.
func Recursive(n int) int { // want `exported Recursive has no non-test reference`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Named is printed by cmd/app, so fmt reaches String.
type Named struct{ s string }

func (n Named) String() string { return n.s }

// NotPrinted is never converted to an interface, so nothing reaches its
// String.
type NotPrinted struct{}

func (NotPrinted) String() string { return "" } // want `exported \(NotPrinted\)\.String has no non-test reference`

// Doer is an in-module interface; cmd/app converts an *Impl to it.
type Doer interface{ Do() }

type Impl struct{}

func (*Impl) Do() {}

func (*Impl) Extra() {} // want `exported \(\*Impl\)\.Extra has no non-test reference`

// Box is generic; cmd/app calls Cap on a Box[int].
type Box[T any] struct{ v []T }

func (b *Box[T]) Cap() int { return cap(b.v) }

func (b *Box[T]) Len() int { return len(b.v) } // want `exported \(\*Box\)\.Len has no non-test reference`

// Fixture is kept by an allow with a reason.
//
//countnet:allow apivet -- a fixture the tests of several packages share
func Fixture() {} // wantbelow `empty reason`
//countnet:allow apivet --
func NoReason() {} // want `exported NoReason has no non-test reference`
