package main

import (
	"maps"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"repro/pbist"
)

const (
	// serveClients goroutines offer the serving load, each a caller
	// that waits for every reply before sending its next request: the
	// client count of the repository's rebuild-scheduling experiment
	// (internal/bench/rebuildsched.go). The loop is closed because an
	// open-loop, fixed-rate version could not be made steady on a small
	// shared machine; its p99 therefore leaves out the queueing a
	// fixed arrival rate would add.
	serveClients = 16
	// miniBatch is the key count of multi-key requests; they put shard
	// scatter and stitch on the serving path.
	miniBatch = 8
	// Writes land in hotRanges key windows of hotWidth each, one in each
	// of hotRanges equal segments of the key space, the layout
	// dist.Clustered gives the paper's non-smooth batches (§9, ablation
	// A3) with its default of 64 clusters. Uniform writes over the whole
	// base would take minutes to push any subtree past its rebuild
	// budget; clustered ones keep rebuilds on the serving path within a
	// run.
	hotRanges = 64
	hotWidth  = 1 << 28
)

type opKind uint8

const (
	opGetFast  opKind = iota // wait-free read of the shard's published version
	opGet                    // read through the shard's combiner
	opGetBatch               // multi-key read, scattered across shards
	opPut
	opDelete
	numOpKinds
)

// mix is a serving traffic mix: the share of requests of each kind in
// percent.
type mix [numOpKinds]int

var (
	// readMix is the 90% read, 10% write mix of the read-scaling
	// experiment's mixed replay (internal/bench/readscale.go): reads
	// through the wait-free path, writes split evenly between Put and
	// Delete. One read in nine is a GetBatch, so that shard scatter and
	// stitch are on this path too.
	readMix = mix{opGetFast: 80, opGetBatch: 10, opPut: 5, opDelete: 5}
	// churnMix is the 10% Get, 45% Put, 45% Delete churn of the
	// rebuild-scheduling experiment (internal/bench/rebuildsched.go),
	// with half of the reads issued as a GetBatch for the same reason.
	churnMix = mix{opGet: 5, opGetBatch: 5, opPut: 45, opDelete: 45}
)

// op is one scripted request and its expected result.
type op struct {
	kind opKind
	ok   bool   // expected found, inserted or removed
	key  int64  // point requests
	val  uint64 // value written, or expected value read
	// GetBatch requests only: the keys and their expected answers.
	keys  []int64
	vals  []uint64
	found []bool
}

// client writes one user's script. Each client writes only fresh (odd)
// keys of its own residue class, so the expected result of every
// request follows from the client's own earlier requests: reads of its
// own keys, of base keys and of never-written keys are checked exactly.
type client struct {
	id   int
	rng  *rand.Rand
	base []int64
	hot  []int64          // start of every hot range
	vals map[int64]uint64 // live own keys and their current values
	live []int64          // the keys of vals, for uniform picks
	pos  map[int64]int    // index of each live key in live
	ver  uint16           // version of the last write
}

// freshKey draws an odd key congruent to 2·id+1 modulo 2·serveClients
// from one of the hot ranges, so no two clients ever write one key.
func (c *client) freshKey() int64 {
	lo := c.hot[c.rng.IntN(len(c.hot))]
	u := c.rng.Int64N(hotWidth / (2 * serveClients))
	return lo + 2*(u*serveClients+int64(c.id)) + 1
}

// readTarget picks a key to read with its expected answer: half base
// keys, a quarter live own keys, a quarter keys never written.
func (c *client) readTarget() (int64, uint64, bool) {
	switch r := c.rng.IntN(4); {
	case r == 2 && len(c.live) > 0:
		k := c.live[c.rng.IntN(len(c.live))]
		return k, c.vals[k], true
	case r == 3:
		return missKey(c.rng, c.base), 0, false
	default:
		k := c.base[c.rng.IntN(len(c.base))]
		return k, value(k, 0), true
	}
}

// writeTarget picks the key of a Put or Delete: a live own key or a
// fresh one, half and half. In the repository's churn scripts every
// write draws a uniform key at base density ½, so half of the Puts
// overwrite and half of the Deletes miss; so do these, and inserts and
// removals stay in balance.
func (c *client) writeTarget() int64 {
	if len(c.live) > 0 && c.rng.IntN(2) == 0 {
		return c.live[c.rng.IntN(len(c.live))]
	}
	return c.freshKey()
}

func (c *client) next(m *mix) op {
	p := c.rng.IntN(100)
	kind := opKind(0)
	for ; p >= m[kind]; kind++ {
		p -= m[kind]
	}
	o := op{kind: kind}
	switch kind {
	case opGetFast, opGet:
		o.key, o.val, o.ok = c.readTarget()
	case opGetBatch:
		o.keys = make([]int64, miniBatch)
		o.vals = make([]uint64, miniBatch)
		o.found = make([]bool, miniBatch)
		for i := range o.keys {
			o.keys[i], o.vals[i], o.found[i] = c.readTarget()
		}
	case opPut:
		o.key = c.writeTarget()
		c.ver++
		o.val = value(o.key, c.ver)
		_, had := c.vals[o.key]
		if !had {
			c.pos[o.key] = len(c.live)
			c.live = append(c.live, o.key)
		}
		c.vals[o.key], o.ok = o.val, !had
	case opDelete:
		o.key = c.writeTarget()
		if _, o.ok = c.vals[o.key]; o.ok {
			i, last := c.pos[o.key], c.live[len(c.live)-1]
			c.live[i], c.pos[last] = last, i
			c.live = c.live[:len(c.live)-1]
			delete(c.pos, o.key)
			delete(c.vals, o.key)
		}
	}
	return o
}

// do issues o and reports whether its result was the expected one.
func do(s *pbist.Sharded[int64, uint64], o *op) bool {
	switch o.kind {
	case opGetFast:
		v, ok := s.GetFast(o.key)
		return v == o.val && ok == o.ok
	case opGet:
		v, ok := s.Get(o.key)
		return v == o.val && ok == o.ok
	case opGetBatch:
		vals, found := s.GetBatch(o.keys)
		return slices.Equal(vals, o.vals) && slices.Equal(found, o.found)
	case opPut:
		return s.Put(o.key, o.val) == o.ok
	default:
		return s.Delete(o.key) == o.ok
	}
}

// runServe runs a serving workload closed-loop: each of serveClients
// users issues its next request as soon as the previous one returns,
// generating it first from its own script state, for the warm-up plus
// the measured window.
func runServe(e *env, m mix) outcome {
	// One hot range in each of hotRanges equal strata of the key space,
	// so every shard carries the same share of the writes.
	hot := make([]int64, hotRanges)
	const stratum = 1 << keyBits / hotRanges
	for i := range hot {
		hot[i] = int64(i)*stratum + 2*serveClients*e.rng.Int64N((stratum-hotWidth)/(2*serveClients))
	}
	clients := make([]*client, serveClients)
	for id := range clients {
		clients[id] = &client{
			id:   id,
			rng:  rand.New(rand.NewPCG(e.rng.Uint64(), uint64(id))),
			base: e.base,
			hot:  hot,
			vals: map[int64]uint64{},
			pos:  map[int64]int{},
		}
	}

	out := newOutcome()
	out.extra = map[int64]uint64{}
	end := out.open.Add(e.window)
	parts := make([]outcome, serveClients)
	var wg sync.WaitGroup
	for id, c := range clients {
		parts[id] = outcome{open: out.open}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &parts[id]
			for time.Now().Before(end) {
				o := c.next(&m)
				t0 := time.Now()
				ok := do(e.s, &o)
				p.record(t0, time.Since(t0), ok, max(1, len(o.keys)))
			}
		}()
	}
	time.Sleep(time.Until(out.open))
	out.before = e.reg.Snapshot()
	wg.Wait()
	out.after = e.reg.Snapshot()
	for id := range parts {
		out.merge(&parts[id])
		maps.Copy(out.extra, clients[id].vals)
	}
	return out
}
