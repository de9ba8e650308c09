package shard

import "sync/atomic"

// bloomProbes is the number of bit positions one key sets and tests.
// Two probes keep the false-positive rate near (fill)² while costing
// one hash: the second position is derived from the upper hash bits.
const bloomProbes = 2

// Bloom is a fixed-size, lock-free Bloom filter used as the optional
// per-shard point-lookup router: Add on every insert, MayContain
// before walking the shard's published version for a Get/Contains. A
// false answer is authoritative — the key was never inserted into this
// shard — so the lookup can short-circuit to "absent" without the
// walk. A true answer merely forwards the lookup; deletes never clear
// bits, so a deleted key reads as a (harmless) stale positive.
//
// Concurrency: Add uses atomic Or, MayContain atomic loads, so any
// number of goroutines may add and test at once. The linearizability
// argument of the frontend needs exactly one ordering property, which
// Add provides by running before the insert is acknowledged: once a
// Put has returned, every later MayContain sees its bits.
type Bloom struct {
	words []atomic.Uint64
	mask  uint64 // len(words)*64 - 1; bit-index mask, power of two
}

// NewBloom returns a filter with at least bits bit slots, rounded up
// to a power of two (minimum 1024). A filter sized at ~8 bits per
// expected key keeps the false-positive rate around 5% with two
// probes.
func NewBloom(bits int) *Bloom {
	n := 1024
	for n < bits {
		n <<= 1
	}
	return &Bloom{
		words: make([]atomic.Uint64, n/64),
		mask:  uint64(n - 1),
	}
}

// Add marks hash h (HashKey of the inserted key) present.
func (b *Bloom) Add(h uint64) {
	for p := 0; p < bloomProbes; p++ {
		bit := (h >> (32 * p)) & b.mask
		b.words[bit/64].Or(1 << (bit % 64))
	}
}

// MayContain reports whether hash h may have been added. False means
// definitely not added.
func (b *Bloom) MayContain(h uint64) bool {
	for p := 0; p < bloomProbes; p++ {
		bit := (h >> (32 * p)) & b.mask
		if b.words[bit/64].Load()&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}
