package parallel

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
)

// testPools returns the pool configurations every primitive is tested
// against: the nil (sequential) pool and a few widths, including one
// wider than the machine.
func testPools() map[string]*Pool {
	return map[string]*Pool{
		"nil":  nil,
		"w1":   NewPool(1),
		"w2":   NewPool(2),
		"w4":   NewPool(4),
		"w16":  NewPool(16),
		"zero": {},
	}
}

func TestPoolWorkers(t *testing.T) {
	cases := []struct {
		in, want int
	}{{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {16, 16}}
	for _, c := range cases {
		if got := NewPool(c.in).Workers(); got != c.want {
			t.Errorf("NewPool(%d).Workers() = %d, want %d", c.in, got, c.want)
		}
	}
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", got)
	}
	if got := (&Pool{}).Workers(); got != 1 {
		t.Errorf("zero pool Workers() = %d, want 1", got)
	}
}

func TestDoRunsBothTasks(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			var a, b atomic.Int32
			p.Do(func() { a.Add(1) }, func() { b.Add(1) })
			if a.Load() != 1 || b.Load() != 1 {
				t.Fatalf("Do ran tasks (%d, %d) times, want (1, 1)", a.Load(), b.Load())
			}
		})
	}
}

func TestDoNested(t *testing.T) {
	p := NewPool(4)
	var n atomic.Int32
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			n.Add(1)
			return
		}
		p.Do(func() { rec(depth - 1) }, func() { rec(depth - 1) })
	}
	rec(10)
	if got := n.Load(); got != 1024 {
		t.Fatalf("nested Do reached %d leaves, want 1024", got)
	}
}

// TestDo3 runs a three-way fork, written as a Do nested in the second
// task of another: each task must run exactly once on every pool shape.
func TestDo3(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			var n atomic.Int32
			p.Do(func() { n.Add(1) }, func() { p.Do(func() { n.Add(10) }, func() { n.Add(100) }) })
			if n.Load() != 111 {
				t.Fatalf("three-way Do total = %d, want 111", n.Load())
			}
		})
	}
}

func TestDoActuallyForksWhenTokensAvailable(t *testing.T) {
	p := NewPool(2)
	// With two workers, f and g can overlap: g signals, f waits for it.
	sig := make(chan struct{})
	done := make(chan struct{})
	go func() {
		p.Do(
			func() { <-sig }, // would deadlock if g ran after f sequentially
			func() { close(sig) },
		)
		close(done)
	}()
	<-done
}

func TestDoSequentialOrderWithoutWorkers(t *testing.T) {
	// On a 1-wide pool Do must run f before g.
	var order []string
	p := NewPool(1)
	p.Do(func() { order = append(order, "f") }, func() { order = append(order, "g") })
	if strings.Join(order, ",") != "f,g" {
		t.Fatalf("sequential Do order = %v, want [f g]", order)
	}
}

func TestDoPanicPropagation(t *testing.T) {
	for name, p := range testPools() {
		t.Run(name, func(t *testing.T) {
			for _, panicIn := range []string{"f", "g"} {
				func() {
					defer func() {
						if r := recover(); r == nil {
							t.Errorf("panic in %s was swallowed", panicIn)
						}
					}()
					p.Do(
						func() {
							if panicIn == "f" {
								panic("boom-f")
							}
						},
						func() {
							if panicIn == "g" {
								panic("boom-g")
							}
						},
					)
				}()
			}
		})
	}
}

func TestTokensAreReleased(t *testing.T) {
	p := NewPool(3)
	for i := 0; i < 1000; i++ {
		p.Do(func() {}, func() {})
	}
	if got := len(p.tokens); got != 0 {
		t.Fatalf("%d tokens leaked after 1000 Do calls", got)
	}
}

func TestNewMachinePool(t *testing.T) {
	if NewMachinePool().Workers() < 1 {
		t.Fatal("machine pool has no workers")
	}
}

// randInts returns n pseudo-random ints from a fixed-seed source.
func randInts(seed int64, n, span int) []int {
	r := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(span)
	}
	return out
}
