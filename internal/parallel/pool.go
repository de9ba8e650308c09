// Package parallel implements the fork-join runtime and the standard
// parallel primitives the paper assumes (§2.4): parallel loops, Scan,
// Filter, Rank, one two-sequence kernel for merge, difference and set
// algebra, and parallel sorting.
//
// The paper's reference implementation uses OpenCilk; here a Pool plays
// the role of the Cilk worker set. A Pool with W workers never runs more
// than W compute goroutines at once: every fork first tries to grab a
// worker token and falls back to inline (sequential) execution when none
// is free. This is the greedy-scheduler model under which the paper's
// work-span bounds are stated, and it makes the worker count an explicit
// parameter so experiments can sweep it independently of GOMAXPROCS.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
)

// Pool bounds the parallelism available to the primitives in this
// package. The zero value and the nil pool are both valid and mean
// "sequential": every primitive then runs inline on the caller's
// goroutine.
type Pool struct {
	workers int
	tokens  chan struct{}
}

// NewPool returns a pool that runs at most workers goroutines at a time.
// workers < 1 is treated as 1 (sequential). A nil *Pool is also valid
// everywhere in this package and behaves like NewPool(1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		// One token per worker beyond the caller's own goroutine.
		p.tokens = make(chan struct{}, workers-1)
	}
	return p
}

// NewMachinePool returns a pool sized to the machine (GOMAXPROCS).
func NewMachinePool() *Pool {
	return NewPool(runtime.GOMAXPROCS(0))
}

// Workers reports the maximum parallelism of the pool. A nil pool
// reports 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// sequential reports whether forking can never help on this pool.
func (p *Pool) sequential() bool {
	return p == nil || p.workers <= 1
}

// acquire attempts to reserve a worker token without blocking.
func (p *Pool) acquire() bool {
	if p.sequential() {
		return false
	}
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a worker token taken by acquire.
func (p *Pool) release() {
	<-p.tokens
}

// chanPool recycles the one-shot join channels of forked tasks: a fork
// on the hot path then costs a goroutine but no channel allocation.
// A channel returns to the pool only after its single value has been
// received on the normal path, so pooled channels are always empty;
// panic joins abandon their channel to the GC.
var chanPool = sync.Pool{
	New: func() any { return make(chan *panicValue, 1) },
}

// panicValue carries a panic across a goroutine join so that a panic in
// a forked task resurfaces in the joining goroutine, as it would in a
// sequential execution.
type panicValue struct {
	val   any
	stack []byte
}

func (pv *panicValue) repanic() {
	panic(fmt.Sprintf("parallel: forked task panicked: %v\n%s", pv.val, pv.stack))
}

// recoverValue packages a recovered panic together with the stack of the
// goroutine it happened on.
func recoverValue(r any) *panicValue {
	buf := make([]byte, 4096)
	buf = buf[:runtime.Stack(buf, false)]
	return &panicValue{val: r, stack: buf}
}

// Do runs f and g, in parallel when a worker token is available and
// sequentially otherwise. It returns after both have finished. A panic
// in either task propagates to the caller.
func (p *Pool) Do(f, g func()) {
	if !p.acquire() {
		f()
		g()
		return
	}
	var (
		wg sync.WaitGroup
		pv *panicValue
	)
	wg.Add(1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				pv = recoverValue(r)
			}
			p.release()
			wg.Done()
		}()
		g()
	}()
	f()
	wg.Wait()
	if pv != nil {
		pv.repanic()
	}
}
