package combine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// queuedStates returns the wait-handshake state of every queued op.
func queuedStates(c *Combiner[int64, uint64]) []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := make([]uint32, len(c.pending))
	for i, o := range c.pending {
		st[i] = o.state.Load()
	}
	return st
}

// waitStates polls until n ops are queued and each is in state want.
func waitStates(t *testing.T, c *Combiner[int64, uint64], n int, want uint32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := queuedStates(c)
		if len(st) == n && !slices.ContainsFunc(st, func(s uint32) bool { return s != want }) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued op states %v, want %d ops in state %d", st, n, want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// goPut runs c.Put(k, k) on a new goroutine and returns its error.
func goPut(c *Combiner[int64, uint64], k int64) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := c.Put(k, uint64(k))
		errc <- err
	}()
	return errc
}

// wantErrs receives one error from each channel and fails the test
// unless every one matches want (nil: success).
func wantErrs(t *testing.T, want error, errcs ...<-chan error) {
	t.Helper()
	for i, errc := range errcs {
		select {
		case err := <-errc:
			if !errors.Is(err, want) {
				t.Errorf("op %d: error %v, want %v", i, err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("op %d never completed: lost wakeup", i)
		}
	}
}

// TestWaitSpinsThenParks drives the wait handshake through each of its
// races with the signal: waiters that outwait the spin bound and park,
// a role handoff to a waiter that is still spinning and to one that
// has parked, and a combiner that never spins, as at GOMAXPROCS=1. No
// signal may be lost in any of them.
func TestWaitSpinsThenParks(t *testing.T) {
	t.Run("long epoch parks its waiters", func(t *testing.T) {
		eng := newGatedEngine()
		c := New[int64, uint64](eng, nil, Options{})
		c.spin = time.Millisecond
		leader := goPut(c, 1)
		<-eng.entered
		var waiters []<-chan error
		for k := int64(10); k < 14; k++ {
			waiters = append(waiters, goPut(c, k))
		}
		waitStates(t, c, 4, opParked)
		eng.release <- struct{}{}
		<-eng.entered // the oldest parked waiter took the role
		eng.release <- struct{}{}
		wantErrs(t, nil, append(waiters, leader)...)
		if st := c.Stats(); st.Epochs != 2 || st.Ops != 5 {
			t.Fatalf("stats = %d epochs / %d ops, want 2 / 5", st.Epochs, st.Ops)
		}
		c.Close()
	})

	for _, tc := range []struct {
		name  string
		spin  time.Duration
		state uint32
	}{
		{"handoff to a spinning waiter", time.Minute, opPending},
		{"handoff to a parked waiter", time.Microsecond, opParked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := newGatedEngine()
			c := New[int64, uint64](eng, nil, Options{})
			c.spin = tc.spin
			leader := goPut(c, 1)
			<-eng.entered
			next := goPut(c, 2)
			waitStates(t, c, 1, tc.state)
			eng.release <- struct{}{}
			wantErrs(t, nil, leader)
			<-eng.entered // the handoff reached the waiter: it leads
			tail := goPut(c, 3)
			waitStates(t, c, 1, tc.state)
			eng.release <- struct{}{}
			<-eng.entered // and handed the role on in turn
			eng.release <- struct{}{}
			wantErrs(t, nil, next, tail)
			if st := c.Stats(); st.Epochs != 3 {
				t.Fatalf("%d epochs, want 3", st.Epochs)
			}
			c.Close()
		})
	}

	t.Run("no spinning at GOMAXPROCS=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		eng := newGatedEngine()
		c := New[int64, uint64](eng, nil, Options{})
		if c.spin != 0 {
			t.Fatalf("spin = %v at GOMAXPROCS=1, want 0", c.spin)
		}
		leader := goPut(c, 1)
		<-eng.entered
		var waiters []<-chan error
		for k := int64(10); k < 14; k++ {
			waiters = append(waiters, goPut(c, k))
		}
		waitStates(t, c, 4, opParked)
		eng.release <- struct{}{}
		<-eng.entered
		eng.release <- struct{}{}
		wantErrs(t, nil, append(waiters, leader)...)
		c.Close()
	})
}

// panickyEngine is a gatedEngine whose write traversal panics, after
// its gate, when the epoch writes key bad.
type panickyEngine struct {
	*gatedEngine
	bad int64
}

func (e panickyEngine) ApplyResolved(keys []int64, vals []uint64, live, found []bool) int {
	n := e.gatedEngine.ApplyResolved(keys, vals, live, found)
	if slices.Contains(keys, e.bad) {
		panic(fmt.Sprintf("engine: bad key %d", e.bad))
	}
	return n
}

// TestPanicPoisons checks that a panicking epoch fails closed: the ops
// of its batch and the ops queued behind it complete with ErrPoisoned,
// carrying the panic value, as do later submissions, and a Close
// waiting on the epoch returns.
func TestPanicPoisons(t *testing.T) {
	eng := panickyEngine{newGatedEngine(), 13}
	c := New[int64, uint64](eng, nil, Options{})
	first := goPut(c, 1)
	<-eng.entered
	bad := goPut(c, 13)
	waitStates(t, c, 1, opParked)
	batched := goPut(c, 2)
	waitStates(t, c, 2, opParked)
	eng.release <- struct{}{}
	wantErrs(t, nil, first)
	<-eng.entered // 13 leads the epoch of 13 and 2
	queued := []<-chan error{goPut(c, 3), goPut(c, 4)}
	waitStates(t, c, 2, opParked)
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	for !c.Closed() {
		time.Sleep(50 * time.Microsecond)
	}
	eng.release <- struct{}{} // the epoch panics
	wantErrs(t, ErrPoisoned, append(queued, bad, batched)...)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting after the epoch panicked")
	}
	_, err := c.Put(5, 5)
	if !errors.Is(err, ErrPoisoned) || !strings.Contains(err.Error(), "engine: bad key 13") {
		t.Fatalf("Put after the panic: error %v, want ErrPoisoned with the panic value", err)
	}
	if err := c.Flush(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Flush after the panic: error %v, want ErrPoisoned", err)
	}
	if st := c.Stats(); st.Epochs != 1 {
		t.Fatalf("%d epochs counted, want 1 (the panicking one is not)", st.Epochs)
	}
}
