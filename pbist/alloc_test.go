package pbist_test

import (
	"testing"

	"repro/pbist"
)

// TestCombinedEpochAllocs pins what one combined epoch allocates on a
// warmed one-shard frontend of 2^17 keys: a single-key Put that
// overwrites a live key, one that inserts a fresh key, and a Delete.
// Each call is one epoch: it resolves presence, writes, publishes a
// version and wakes its client. The whole count is the publish's: its
// Version and the path copy, which TestPublishedEpochAllocs in
// internal/core pins on its own; in steady state the root adds
// nothing to it, because its copy reuses a graced spare root. The
// combiner adds nothing either: its per-epoch arrays and its queue
// are reused, and a small epoch replays inline. The ceilings are the
// measured counts.
func TestCombinedEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings are checked in the non-race run")
	}
	const n = 1 << 17
	keys := make([]int64, n) // even keys; odd keys are fresh
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = 2 * int64(i)
		vals[i] = uint64(i)
	}
	s := pbist.NewShardedFromItems(pbist.ShardedOptions{Shards: 1}, keys, vals)
	defer s.Close()
	next := 0
	pick := func() int64 { // odd stride: distinct keys
		next++
		return keys[next*7919%n]
	}
	for _, c := range []struct {
		name    string
		run     func()
		ceiling float64
	}{
		{"update", func() { s.Put(pick(), 1) }, 6},
		{"insert", func() { s.Put(pick()+1, 1) }, 6},
		{"delete", func() { s.Delete(pick()) }, 5},
	} {
		for i := 0; i < 8; i++ {
			c.run() // warm the combiner's arrays and the tree's arena
		}
		got := testing.AllocsPerRun(200, c.run)
		t.Logf("%s epoch: %.2f allocs", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s epoch allocates %.2f, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
