// Package a is the arenapair golden package: a hermetic mini Scratch
// (the analyzer matches by type name, so this stands in for
// arena.Scratch) exercised by flagged and clean borrow shapes.
package a

// Scratch mimics arena.Scratch for the analyzer's name-based match.
type Scratch[T any] struct{}

func (s *Scratch[T]) Get(n int) []T     { return make([]T, n) }
func (s *Scratch[T]) GetZero(n int) []T { return make([]T, n) }
func (s *Scratch[T]) Put(buf []T)       {}

func use(buf []int)       {}
func useT[T any](buf []T) {}
func cond() bool          { return false }

// leak never returns its borrow.
func leak(s *Scratch[int]) {
	buf := s.Get(8) // want `scratch borrow of buf is not returned`
	use(buf)
}

// balanced is the straight-line happy path.
func balanced(s *Scratch[int]) {
	buf := s.Get(8)
	use(buf)
	s.Put(buf)
}

// deferred releases through defer, satisfying every exit.
func deferred(s *Scratch[int]) {
	buf := s.GetZero(8)
	defer s.Put(buf)
	use(buf)
}

// deferEarly mixes defer with an early return: still clean.
func deferEarly(s *Scratch[int]) {
	buf := s.Get(8)
	defer s.Put(buf)
	if cond() {
		return
	}
	use(buf)
}

// deferClosure releases inside a deferred function literal.
func deferClosure(s *Scratch[int]) {
	buf := s.Get(8)
	defer func() { s.Put(buf) }()
	use(buf)
}

// earlyReturn puts only on the fall-through path.
func earlyReturn(s *Scratch[int]) {
	buf := s.Get(8) // want `not returned on this path`
	if cond() {
		return
	}
	s.Put(buf)
}

// branchBalanced puts in both arms: clean.
func branchBalanced(s *Scratch[int]) {
	buf := s.Get(8)
	if cond() {
		s.Put(buf)
	} else {
		s.Put(buf)
	}
}

// panicky leaks on the panic edge.
func panicky(s *Scratch[int]) {
	buf := s.Get(8) // want `not returned on this path`
	if cond() {
		panic("boom")
	}
	s.Put(buf)
}

// switchLeak leaks on the default arm's return.
func switchLeak(s *Scratch[int], k int) {
	buf := s.Get(8) // want `not returned on this path`
	switch k {
	case 0:
		s.Put(buf)
	default:
		return
	}
}

// loopLeak borrows every iteration without returning.
func loopLeak(s *Scratch[int]) {
	for i := 0; i < 4; i++ {
		buf := s.Get(8) // want `not returned within the loop iteration`
		use(buf)
	}
}

// loopBalanced returns within each iteration: clean.
func loopBalanced(s *Scratch[int]) {
	for i := 0; i < 4; i++ {
		buf := s.Get(8)
		use(buf)
		s.Put(buf)
	}
}

// putTwice returns the same borrow twice: the buffer would sit in the
// free list twice and be lent to two borrowers at once.
func putTwice(s *Scratch[int]) {
	buf := s.Get(8)
	s.Put(buf)
	s.Put(buf) // want `returned twice`
}

// putAfterDefer returns explicitly a borrow its defer returns again at
// exit.
func putAfterDefer(s *Scratch[int]) {
	buf := s.Get(8)
	defer s.Put(buf)
	use(buf)
	s.Put(buf) // want `returned twice`
}

// putEachArmThenAgain returns the borrow in both arms and once more
// after them.
func putEachArmThenAgain(s *Scratch[int]) {
	buf := s.Get(8)
	if cond() {
		s.Put(buf)
	} else {
		s.Put(buf)
	}
	s.Put(buf) // want `returned twice`
}

// putEarlyReturn returns the borrow on the early exit and on the
// fall-through: one Put per path, clean.
func putEarlyReturn(s *Scratch[int]) {
	buf := s.Get(8)
	if cond() {
		s.Put(buf)
		return
	}
	use(buf)
	s.Put(buf)
}

// reborrow returns a borrow, then borrows again into the same
// variable and returns that: clean.
func reborrow(s *Scratch[int]) {
	buf := s.Get(8)
	s.Put(buf)
	buf = s.Get(16)
	s.Put(buf)
}

// unbound passes the borrow straight into a call: unverifiable.
func unbound(s *Scratch[int]) {
	use(s.Get(8)) // want `not bound to a variable`
}

// overwrite drops the first borrow by reassignment.
func overwrite(s *Scratch[int]) {
	buf := s.Get(8)
	buf = s.Get(16) // want `overwritten before Put`
	s.Put(buf)
}

// resliceOK reslices and self-appends the borrowed buffer before
// returning it — the standard kernel shape; the borrow stays live
// across derivations of itself.
func resliceOK(s *Scratch[int]) {
	buf := s.Get(8)
	buf = buf[:0]
	buf = append(buf, 1)
	s.Put(buf)
}

// ownerLine transfers ownership of one borrow, marked at the line.
func ownerLine(s *Scratch[int]) []int {
	buf := s.Get(8) //pbist:owner
	return buf
}

// ownerFunc transfers every borrow it makes; the doc-level mark
// covers direct returns of Get results.
//
//pbist:owner
func ownerFunc(s *Scratch[int]) ([]int, []int) {
	return s.Get(4), s.Get(4)
}

// putBoth is a Put wrapper: calling it releases both arguments.
//
//pbist:releases
func putBoth(s *Scratch[int], a, b []int) {
	s.Put(a)
	s.Put(b)
}

// viaWrapper releases through the annotated wrapper: clean.
func viaWrapper(s *Scratch[int]) {
	a := s.Get(4)
	b := s.Get(4)
	putBoth(s, a, b)
}

// genericLeak shows the check is instantiation-independent.
func genericLeak[T any](s *Scratch[T]) {
	buf := s.Get(8) // want `not returned`
	useT(buf)
}

// genericBalanced is the clean generic shape.
func genericBalanced[T any](s *Scratch[T]) {
	buf := s.Get(8)
	defer s.Put(buf)
	useT(buf)
}

//pbist:onwer typo is reported, not silently ignored // want `unknown pbist annotation`
func typoAnnotation(s *Scratch[int]) {
	buf := s.Get(4)
	s.Put(buf)
}
