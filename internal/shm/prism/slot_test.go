package prism

import (
	"runtime"
	"testing"
	"time"
)

// TestSlotProtocol exercises the camp/claim/withdraw CAS triangle on a
// single slot.
func TestSlotProtocol(t *testing.T) {
	var s Slot[int]
	w, other := &Offer[int]{V: 1}, &Offer[int]{V: 2}

	if s.Peek() != nil {
		t.Fatal("empty slot holds an offer")
	}
	if !s.Camp(w) {
		t.Fatal("camp on empty slot failed")
	}
	if s.Camp(other) {
		t.Fatal("second camp displaced the first")
	}
	got := s.Peek()
	if got != w || !s.Claim(got) {
		t.Fatalf("peek = %v; want the camped offer, claimed", got)
	}
	if s.Claim(got) {
		t.Fatal("an offer was claimed twice")
	}
	if s.Withdraw(w) {
		t.Fatal("withdraw succeeded after a claim")
	}
	if !s.Camp(w) || !s.Withdraw(w) {
		t.Fatal("camp+withdraw round trip failed")
	}
	if s.Claim(w) {
		t.Fatal("claimed a withdrawn offer")
	}
	if s.Peek() != nil {
		t.Fatal("slot not empty after withdraw")
	}
}

// TestWaitTimeout checks a camper nobody claims: Wait withdraws it at
// the deadline and reports no delivery.
func TestWaitTimeout(t *testing.T) {
	var s Slot[int]
	o := &Offer[int]{}
	if !s.Camp(o) {
		t.Fatal("camp on empty slot failed")
	}
	if s.Wait(o, time.Now().Add(100*time.Microsecond)) {
		t.Fatal("Wait reported a delivery nobody made")
	}
	if s.Peek() != nil {
		t.Fatal("timed-out offer left in the slot")
	}
}

// TestWaitWithdrawLoses checks the last-instant race: the claim wins
// before the camper's deadline, the delivery lands after it. The
// camper's withdraw fails, so it must keep waiting and take the
// payload, and the offer must come back ready to camp again.
func TestWaitWithdrawLoses(t *testing.T) {
	var s Slot[int]
	o := &Offer[int]{}
	if !s.Camp(o) || !s.Claim(s.Peek()) {
		t.Fatal("camp+claim failed")
	}
	go func() {
		time.Sleep(2 * time.Millisecond)
		o.V = 42
		o.Deliver()
	}()
	if !s.Wait(o, time.Now()) {
		t.Fatal("claimed camper withdrew")
	}
	if o.V != 42 {
		t.Fatalf("camper read %d, want the delivered 42", o.V)
	}
	if !s.Camp(o) || s.Wait(o, time.Now()) {
		t.Fatal("a delivered offer did not camp and time out afresh")
	}
}

// TestWaitOneP is the hand-off's liveness on a single processor. The
// claimer has not run when the camper starts to wait, and it sleeps
// between its claim and its delivery. The camper's wait must hand the
// processor over, or the claimer never gets to claim or deliver.
func TestWaitOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var s Slot[int]
	o := &Offer[int]{}
	if !s.Camp(o) {
		t.Fatal("camp on empty slot failed")
	}
	go func() {
		for {
			if c := s.Peek(); c != nil && s.Claim(c) {
				time.Sleep(time.Millisecond)
				c.V = 7
				c.Deliver()
				return
			}
			runtime.Gosched()
		}
	}()
	if !s.Wait(o, time.Now().Add(time.Minute)) || o.V != 7 {
		t.Fatalf("camper missed the delivery: V = %d", o.V)
	}
}
