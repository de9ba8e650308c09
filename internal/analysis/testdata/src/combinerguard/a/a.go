// Package a is the combinerguard golden package: a mini flat-combiner
// whose confined fields are annotated //pbist:guardedby combiner,
// accessed from combiner functions (clean), ordinary functions
// (flagged), closures inside combiner functions (flagged — closures
// run on pool workers), and keyed constructor literals (clean).
package a

type engine struct{ n int }

type combiner struct {
	pending int
	eng     *engine //pbist:guardedby combiner
	// scr is the epoch-confined scratch pool.
	//pbist:guardedby combiner
	scr []int
}

// runEpoch executes while its goroutine holds the combiner role.
//
//pbist:combiner
func (c *combiner) runEpoch() {
	c.eng.n++
	c.scr = c.scr[:0]
}

// epochWithClosure hands work to the pool: the closure does not
// inherit combiner context, so confined state must be copied to a
// local at the boundary first.
//
//pbist:combiner
func (c *combiner) epochWithClosure(run func(func())) {
	scr := c.scr
	run(func() {
		_ = scr   // local copy: fine
		_ = c.scr // want `combiner-confined field scr accessed outside`
	})
}

// outside is an ordinary method: no confined access allowed.
func (c *combiner) outside() int {
	_ = c.eng // want `combiner-confined field eng accessed outside`
	return c.pending
}

// newCombiner initializes guarded fields through a keyed literal:
// construction precedes publication, so this is clean.
func newCombiner(e *engine) *combiner {
	return &combiner{eng: e, scr: nil}
}

type genericCombiner[K any] struct {
	keys []K //pbist:guardedby combiner
}

// genericEpoch shows the check is instantiation-independent.
//
//pbist:combiner
func (g *genericCombiner[K]) genericEpoch() {
	g.keys = g.keys[:0]
}

// genericOutside is flagged the same way.
func (g *genericCombiner[K]) genericOutside() int {
	return len(g.keys) // want `combiner-confined field keys accessed outside`
}

type typoGuard struct {
	x int //pbist:guardedby epoch // want `unknown guard "epoch"`
}
