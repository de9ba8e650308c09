//go:build race

package pbist_test

// raceEnabled reports whether the race detector instruments this build;
// the allocation ceilings skip under instrumentation, which adds
// bookkeeping allocations of its own.
const raceEnabled = true
