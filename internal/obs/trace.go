package obs

import (
	"sync"
	"time"
)

// maxPhases bounds the named phases one EpochTrace can carry. The
// combiner records four (sort, write, replay, publish); the
// headroom is for future phases without a layout change.
const maxPhases = 8

// PhaseSpan is one named slice of an epoch's wall time.
type PhaseSpan struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
}

// EpochTrace is the structured record of one combining epoch: when it
// started, how long it ran, how long its first client waited in the
// queue, what it carried, and how the wall time decomposes
// into named phases. Phases tile the epoch — their durations sum to
// Wall up to clock-read granularity — so a trace answers "where did
// this epoch's time go" without a profiler.
type EpochTrace struct {
	// Seq is the trace's position in its ring's push order (assigned
	// by TraceRing.Push, monotonically increasing per ring).
	Seq int64
	// Shard identifies the combiner that ran the epoch: its shard
	// index, so always 0 for a one-shard frontend.
	Shard int
	// Start is when the combiner began executing the epoch; Wall is
	// the execution time through client wakeup.
	Start time.Time
	Wall  time.Duration
	// GatherWait is how long the epoch's first operation sat enqueued
	// before execution began: what remained of the previous epoch and
	// its handoff of the combiner role, plus the one yield the leader
	// makes before its take of the queue.
	GatherWait time.Duration
	// Ops and Keys are the operation and key counts combined into the
	// epoch.
	Ops  int
	Keys int
	// RebuildKeys is the keys the epoch's inline §7.1 rebuilds laid
	// down, inside its write phase; 0 when no subtree was due.
	RebuildKeys int

	phases  [maxPhases]PhaseSpan
	nphases int
}

// AddPhase appends a named phase. Phases beyond maxPhases are dropped.
//
//pbist:noalloc
func (t *EpochTrace) AddPhase(name string, d time.Duration) {
	if t.nphases == maxPhases {
		return
	}
	t.phases[t.nphases] = PhaseSpan{Name: name, Dur: d}
	t.nphases++
}

// Phases returns the recorded phases in recording order. The slice
// aliases the trace's internal array; callers must not modify it.
func (t *EpochTrace) Phases() []PhaseSpan {
	return t.phases[:t.nphases]
}

// TraceRing is a bounded, mutex-guarded ring of epoch traces: pushes
// never allocate (the backing array is laid down at construction) and
// overwrite the oldest entry once the ring is full, so a long-running
// combiner retains the most recent window of epochs at fixed memory.
type TraceRing struct {
	mu   sync.Mutex
	buf  []EpochTrace
	next int64 // total pushes; next%len(buf) is the slot to overwrite
}

// DefaultTraceDepth is the ring capacity used when tracing is enabled
// without an explicit depth.
const DefaultTraceDepth = 64

// NewTraceRing returns a ring retaining the last depth traces
// (DefaultTraceDepth if depth <= 0).
func NewTraceRing(depth int) *TraceRing {
	if depth <= 0 {
		depth = DefaultTraceDepth
	}
	return &TraceRing{buf: make([]EpochTrace, depth)}
}

// Push stores t (by value), assigning its Seq. Nil-safe.
//
//pbist:noalloc
func (r *TraceRing) Push(t *EpochTrace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	t.Seq = r.next
	r.buf[r.next%int64(len(r.buf))] = *t
	r.next++
	r.mu.Unlock()
}

// Len returns the number of traces currently retained.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < int64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Recent returns up to n retained traces, newest first (n <= 0 means
// all retained). The result is a fresh slice safe to hold.
func (r *TraceRing) Recent(n int) []EpochTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	have := r.next
	if have > int64(len(r.buf)) {
		have = int64(len(r.buf))
	}
	if n <= 0 || int64(n) > have {
		n = int(have)
	}
	out := make([]EpochTrace, n)
	for i := 0; i < n; i++ {
		out[i] = r.buf[(r.next-1-int64(i))%int64(len(r.buf))]
	}
	return out
}
