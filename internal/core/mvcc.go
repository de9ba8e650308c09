package core

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/iindex"
	"repro/internal/obs"
)

// This file implements the tree's multi-version layer: copy-on-rebuild
// publication of immutable roots, wait-free point reads against the
// published version, O(changed) durable snapshots that share chunk
// storage with the live tree, and epoch-based reclamation of retired
// chunks and replaced path copies.
//
// The design follows the non-blocking C-IST line (Prokopec, Brown,
// Alistarh; see PAPERS.md): reads interpolate against a published
// immutable version while the combiner keeps batching writes into the
// live tree. Three pieces make that sound here:
//
//   - Generations. The tree carries a write generation (writeGen,
//     combiner-confined) and every node records the generation it was
//     created in. Every mutation calls owned() on each node of its
//     path: a node from an older generation is copied (path copying),
//     so nodes reachable from a published Version are never written
//     again. One epoch copies one node per level on the path: below
//     the root an inner copy owns a children array and shares the
//     rest until its first slot write (ownSlots), and a leaf copy
//     owns rep/vals/exists with room for the merge. In a walk that
//     runs sequentially from the root, which every serving epoch
//     does, each copy is a graced node reused whole, header and
//     arrays (see Reclamation), so such an epoch allocates only its
//     Version once the nodes on its paths are path copies themselves.
//     The √n-wide root is reused the same way from a graced spare
//     root, synced to the frozen root by rewriting only the child
//     slots the root log says were written since the spare was live.
//     Publishing bumps writeGen, freezing everything published. Trees
//     that never call EnablePublish keep writeGen at zero forever,
//     every node matches, and owned() is an equality test — the direct
//     Map/Tree views pay nothing for this layer.
//
//   - Publication. PublishVersion (combiner-confined) wraps the
//     current root in an immutable Version and stores it in an
//     atomic.Pointer. Readers load the pointer and walk — no locks, no
//     queues, no retries: wait-free.
//
//   - Reclamation. One rule covers every kind of graced storage: it
//     is stamped with the reclamation era when it is retired, and it
//     is reused once graced, two era advances past its stamp, and
//     born after the latest durable Snapshot cut. Readers pin a
//     striped counter band keyed by era parity around each walk, and
//     the era only advances (at publish time) when the band about to
//     be reused has drained, so two advances mean every reader that
//     could have seen the storage has unpinned. A rebuild disconnects
//     the replaced subtree, whose chunks enter a bounded grace ring
//     and, once graced, recycle into the tree arena's scratch free
//     lists — composing with the scratch recycling the write paths
//     already do. Path copies take the same route node by node, and
//     only in a recycling walk (see owned), which runs on one
//     goroutine: a node owned() allocated for itself alone (the own
//     bit) enters grace when a later copy replaces it, and once
//     graced goes onto a bounded free stack per kind and capacity
//     class, from which a later copy takes it. A superseded inner
//     root enters a FIFO of spareRoots entries at the publish that
//     supersedes it, and the next root copy reuses the oldest one
//     that is graced and as wide as the frozen root. Storage that
//     fails a check, or finds its ring, FIFO or stack full, goes to
//     the GC: reclamation degrades, never breaks. Version headers are
//     never recycled: cut collection relies on their pointer
//     identity.
const (
	// retireRingCap bounds the grace ring: retired chunks beyond this
	// many pending entries are dropped to the GC instead of recycled,
	// so a rebuild storm cannot accumulate unbounded reclamation debt.
	retireRingCap = 256
	// readerStripes spreads reader pins over independent cache lines
	// per era band, so concurrent fast reads do not contend on one
	// counter word.
	readerStripes = 8
	// spareRoots bounds the FIFO of superseded roots waiting out their
	// grace period for reuse as the next root copy. Each publish pushes
	// at most one and each epoch takes at most one, and a spare is
	// graced two era advances after its push, so a few entries cover
	// the steady state.
	spareRoots = 4
	// pathGraceCap bounds the replaced path copies waiting out their
	// grace period: past it, owned drops a replaced node to the GC.
	pathGraceCap = 256
	// freeNodesCap bounds each free stack of graced path copies, and
	// nodeClasses is the number of capacity classes per node kind
	// (sizeClass; capacities from 131072 up are not recycled). A
	// serving epoch copies a few nodes and the grace period lasts a few
	// publishes, so a few nodes per class cover it; every node a stack
	// holds is heap the GC would otherwise free.
	freeNodesCap = 8
	nodeClasses  = 64
	// rootLogCap bounds the log of root child slots written, from
	// which a spare root is synced (spareRootCopy). A serving epoch
	// writes a slot or two and a spare is a few epochs old.
	rootLogCap = 64
)

// Version is one published immutable tree state. Pointer identity is
// version identity: two loads returning the same *Version observed the
// same state. A Version is safe for concurrent walks by any number of
// goroutines; nothing reachable from it is ever mutated.
type Version[K iindex.Numeric, V any] struct {
	root *node[K, V]
	size int
	gen  uint64 // writeGen the version was built under
	seq  uint64 // publish sequence number (1, 2, ...)
	at   int64  // publish wall time, unix nanoseconds; 0 on an unobserved tree
}

// Len reports the number of live keys in the version. Nil-safe: a tree
// that never published reads as empty.
func (v *Version[K, V]) Len() int {
	if v == nil {
		return 0
	}
	return v.size
}

// Seq returns the publish sequence number (0 for nil).
func (v *Version[K, V]) Seq() uint64 {
	if v == nil {
		return 0
	}
	return v.seq
}

// stripe is one padded reader counter.
type stripe struct {
	n atomic.Int64
	_ [56]byte
}

// band is one era-parity set of reader counters.
type band struct {
	cells [readerStripes]stripe
}

func (b *band) sum() int64 {
	var s int64
	for i := range b.cells {
		s += b.cells[i].n.Load()
	}
	return s
}

// graced reports whether storage retired at era stamp is out of every
// reader's reach at era: two advances past the stamp prove that every
// reader that pinned before the retirement has unpinned (see pin).
func graced(stamp, era uint64) bool {
	return stamp+2 <= era
}

// retiredChunk is one grace-ring entry: chunk storage disconnected
// from the live tree, waiting out its grace period.
type retiredChunk[K iindex.Numeric, V any] struct {
	ch    arena.Chunk[K, V]
	born  uint64 // writeGen the chunk was built under
	stamp uint64 // era at retirement
}

// retiredNode is a node waiting out its grace period before it serves
// another copy: a superseded inner root (spares, see spareRootCopy) or
// a replaced path copy (grace, see drainPaths).
type retiredNode[K iindex.Numeric, V any] struct {
	n     *node[K, V]
	stamp uint64 // era at retirement
}

// rootSlot is one root log entry: generation gen wrote root child
// slot.
type rootSlot struct {
	gen  uint64
	slot int32
}

// chunkHandle ties the root node of a chunked build back to its chunk
// so a later rebuild of an enclosing subtree can retire the storage.
// COW copies share the handle with their original; that is safe
// because at most one of them is reachable from the live tree, and
// only the live tree retires.
type chunkHandle[K iindex.Numeric, V any] struct {
	ch   arena.Chunk[K, V]
	born uint64
}

// mvccState is the publication and reclamation state of one publishing
// tree. pub, era, bands, and snapCutoff are shared with reader
// goroutines (atomics); seq is combiner-confined like the tree itself.
// ring is appended to by rebuilds, which run in parallel inside one
// batched traversal, so appends hold ringMu; drainRetired runs between
// traversals and needs no lock.
type mvccState[K iindex.Numeric, V any] struct {
	pub        atomic.Pointer[Version[K, V]]
	era        atomic.Uint64
	bands      [2]band
	snapCutoff atomic.Uint64 // max Version.gen captured by a durable Snapshot

	seq    uint64 // publish counter
	ringMu sync.Mutex
	ring   []retiredChunk[K, V] // grace ring
	spares []retiredNode[K, V]  // superseded roots, oldest first; combiner-confined

	// Path recycling, combiner-confined like spares and touched only
	// by recycling walks and PublishVersion. grace holds the own nodes
	// path copies replaced, oldest first, each stamped when replaced;
	// graced nodes move to free, one stack per kind (inner, leaf) and
	// capacity class, nfree nodes in all.
	grace []retiredNode[K, V]
	free  [2][nodeClasses][]*node[K, V]
	nfree int

	// The root log, a ring of the last logLen root slots written
	// (logRootSlot). It holds every slot written in a generation above
	// logFloor, so a spare born at or after logFloor syncs from it.
	rootLog  [rootLogCap]rootSlot
	logNext  int
	logLen   int
	logFloor uint64

	// graceDepth mirrors the chunks, spare roots and path copies in
	// grace, and freeDepth the nodes on the free stacks, at the end of
	// each PublishVersion for the grace_depth and free_nodes gauges,
	// which are read off the combiner.
	graceDepth atomic.Int64
	freeDepth  atomic.Int64

	published     *obs.Counter // versions published
	retired       *obs.Counter // chunks entering the grace ring
	recycled      *obs.Counter // graced chunks recycled into the arena
	dropped       *obs.Counter // graced chunks dropped to the GC
	rootsRecycled *obs.Counter // root copies served by a spare root
	pathsRecycled *obs.Counter // path copies served by a graced node
}

// EnablePublish switches the tree into publishing mode and publishes
// the current contents as the first Version. Call it once, before the
// tree is shared with a combiner; it is not safe to enable concurrently
// with operations. From here on every batched mutation copies
// out-of-generation nodes before writing (path copying), so published
// versions stay immutable, and rebuild-retired chunk storage flows
// through the grace ring back into the scratch arena.
func (t *Tree[K, V]) EnablePublish() {
	if t.mv != nil {
		return
	}
	m := &mvccState[K, V]{}
	if r := t.cfg.Metrics; r != nil {
		m.published = r.Counter("core.mvcc.published")
		m.retired = r.Counter("core.mvcc.chunks_retired")
		m.recycled = r.Counter("core.mvcc.chunks_recycled")
		m.dropped = r.Counter("core.mvcc.chunks_dropped")
		m.rootsRecycled = r.Counter("core.mvcc.roots_recycled")
		m.pathsRecycled = r.Counter("core.mvcc.paths_recycled")
		if o := t.obs; o != nil {
			o.nodeCopies = r.Counter("core.mvcc.node_copies")
			o.slotCopies = r.Counter("core.mvcc.slot_copies")
		}
		r.Func("core.mvcc.grace_depth", m.graceDepth.Load)
		r.Func("core.mvcc.free_nodes", m.freeDepth.Load)
		r.Func("core.mvcc.snapshot_age_ns", func() int64 {
			v := m.pub.Load()
			if v == nil {
				return 0
			}
			return time.Now().UnixNano() - v.at
		})
	}
	t.mv = m
	t.dirty = true
	t.PublishVersion()
}

// PublishVersion publishes the current tree state as a new immutable
// Version (when anything changed since the last publish) and runs one
// round of reclamation bookkeeping: retire the inner root the new
// version superseded as a spare, advance the era if the stale reader
// band has drained, then recycle or drop graced chunks and path
// copies. The version's publish time is stamped only on an observed
// tree, for the snapshot_age_ns gauge that reads it. Combiner-confined,
// like every mutating method of the tree; no-op on a non-publishing
// tree.
func (t *Tree[K, V]) PublishVersion() {
	m := t.mv
	if m == nil {
		return
	}
	if t.dirty {
		m.seq++
		ver := &Version[K, V]{
			root: t.root,
			size: t.Len(),
			gen:  t.writeGen,
			seq:  m.seq,
		}
		if m.published != nil {
			ver.at = time.Now().UnixNano()
			m.published.Add(1)
		}
		prev := m.pub.Swap(ver)
		t.writeGen++ // freeze everything just published
		t.dirty = false
		// The era is loaded after the swap: every reader that can
		// still reach prev's root pinned before it, so two advances
		// past this stamp prove the root unreachable.
		if prev != nil && prev.root != t.root && prev.root != nil && prev.root.children != nil {
			if len(m.spares) == spareRoots {
				m.spares = dropOldest(m.spares)
			}
			m.spares = append(m.spares, retiredNode[K, V]{n: prev.root, stamp: m.era.Load()})
		}
	}
	// Era advance: the band of the parity we are about to hand to new
	// readers must be empty, which proves every reader pinned two eras
	// ago is gone. Only the combiner stores era, so load+store is fine.
	e := m.era.Load()
	if m.bands[(e+1)&1].sum() == 0 {
		m.era.Store(e + 1)
	}
	t.drainRetired()
	m.drainPaths()
	m.graceDepth.Store(int64(len(m.ring) + len(m.spares) + len(m.grace)))
	m.freeDepth.Store(int64(m.nfree))
}

// pin registers the caller as an active reader of the current era and
// returns the counter cell to release. Wait-free: one atomic load, one
// atomic add. The era may advance at most once between the load and
// the add; recycling needs two advances past a retirement, so a chunk
// visible to any version this reader can load is never recycled while
// the pin is held.
func (m *mvccState[K, V]) pin() *atomic.Int64 {
	e := m.era.Load()
	c := &m.bands[e&1].cells[rand.Uint32()&(readerStripes-1)].n
	c.Add(1)
	return c
}

// ReaderPin is a held reader registration; Release it when the walk
// over version-shared storage is done.
type ReaderPin struct {
	c *atomic.Int64
}

// Release ends the reader registration. Safe on the zero value.
func (p ReaderPin) Release() {
	if p.c != nil {
		p.c.Add(-1)
	}
}

// PinReader registers the calling goroutine as an active reader, so
// chunk storage reachable from any Version loaded while the pin is
// held stays valid. Wait-free; pair with Release.
func (t *Tree[K, V]) PinReader() ReaderPin {
	if t.mv == nil {
		return ReaderPin{}
	}
	return ReaderPin{c: t.mv.pin()}
}

// CurrentVersion returns the most recently published Version (nil
// before EnablePublish). To walk version-shared storage safely, hold a
// ReaderPin across both the load and the walk; pointer-compare two
// loads to detect an intervening publish.
func (t *Tree[K, V]) CurrentVersion() *Version[K, V] {
	if t.mv == nil {
		return nil
	}
	return t.mv.pub.Load()
}

// SnapshotGet is the wait-free read fast path: it fetches key's value
// from the latest published Version without touching the live tree.
// Safe to call from any goroutine concurrently with batched mutations;
// it observes every mutation published before the call and none after.
func (t *Tree[K, V]) SnapshotGet(key K) (V, bool) {
	m := t.mv
	if m == nil {
		panic("core: SnapshotGet before EnablePublish")
	}
	c := m.pin()
	val, ok := lookupVersion(m.pub.Load(), key)
	c.Add(-1)
	return val, ok
}

// SnapshotContains is SnapshotGet without the value.
func (t *Tree[K, V]) SnapshotContains(key K) bool {
	_, ok := t.SnapshotGet(key)
	return ok
}

// lookupVersion is lookup over an immutable version's root.
//
//pbist:noalloc
func lookupVersion[K iindex.Numeric, V any](ver *Version[K, V], key K) (val V, ok bool) {
	if ver == nil {
		return val, false
	}
	return lookup(ver.root, key)
}

// SnapshotNow returns a new Tree handle over the latest published
// Version in O(1): the snapshot shares every unrebuilt chunk with the
// live tree instead of flattening and rebuilding. The handle is a
// fully independent single-goroutine tree with its own arena, so its
// Stats count only its own operations — mutations copy shared nodes on
// write (its generation starts past everything it shares), and its own
// rebuilds drop replaced storage to the GC, never into the live tree's
// reclamation ring.
//
// Durability: the cut generation is recorded (snapCutoff) under a
// reader pin before the handle escapes, so chunk storage reachable
// from the snapshot is permanently exempt from recycling — the live
// tree drops it to the GC instead, which collects it when the snapshot
// itself goes away.
func (t *Tree[K, V]) SnapshotNow() *Tree[K, V] {
	m := t.mv
	if m == nil {
		panic("core: SnapshotNow before EnablePublish")
	}
	c := m.pin()
	v := m.pub.Load()
	for {
		cur := m.snapCutoff.Load()
		if v.gen <= cur || m.snapCutoff.CompareAndSwap(cur, v.gen) {
			break
		}
	}
	c.Add(-1)
	nt := &Tree[K, V]{
		cfg:  t.cfg,
		pool: t.pool,
		ar:   newTreeArena[K, V](t.cfg.DisableBufferReuse),
	}
	nt.root = v.root
	nt.writeGen = v.gen + 1 // strictly newer than anything shared
	return nt
}

// GroupSize is the most keys one VersionGetGroup call walks together.
// BENCH_groupread.json sweeps 4, 8 and 16 on the sharded frontend's
// small batches.
const GroupSize = 8

// VersionGetGroup fetches up to GroupSize keys at once from pinned
// Versions, each against its own: keys[i] is looked up in vers[i],
// writing found[i], and vals[i] unless vals is nil (the zero value for
// a missing key). Both destinations must have len(keys) entries; a nil
// version reads as empty. The walks run level-synchronously: every
// round moves each unfinished key one level down, and it first takes
// every live key's probe into its node (the index estimate, or the
// leaf probe between the separators the key carries down) before it
// walks any key, so the cache misses of independent walks (node
// header, index bucket, rep slot, child pointer) are in flight
// together instead of one after another. Each step is lookup's step,
// so every answer is lookupVersion's. The pin contract is
// VersionItems'; the sharded frontend uses it to answer a batched read
// from one consistent cut across all shards.
//
//pbist:noalloc
func VersionGetGroup[K iindex.Numeric, V any](vers []*Version[K, V], keys []K, vals []V, found []bool) {
	var cur [GroupSize]*node[K, V]
	var lo, hi [GroupSize]float64
	var probe [GroupSize]int
	n := len(keys)
	if n > GroupSize {
		panic("core: VersionGetGroup group larger than GroupSize")
	}
	clear(found[:n])
	if vals != nil {
		clear(vals[:n])
	}
	live := 0
	for i, v := range vers[:n] {
		if v != nil && v.root != nil {
			cur[i] = v.root
			lo[i], hi[i] = math.Inf(-1), math.Inf(1)
			live++
		}
	}
	for live > 0 {
		for i, v := range cur[:n] {
			if v == nil {
				continue
			}
			if v.isLeaf() {
				probe[i] = iindex.LeafProbe(v.rep, lo[i], hi[i], keys[i])
			} else {
				probe[i] = min(v.idx.Approx(float64(keys[i])), len(v.rep))
			}
		}
		for i, v := range cur[:n] {
			if v == nil {
				continue
			}
			pos, hit := iindex.Walk(v.rep, probe[i], keys[i])
			var next *node[K, V]
			if hit {
				if v.exists[pos] {
					found[i] = true
					if vals != nil {
						vals[i] = v.vals[pos]
					}
				}
			} else if !v.isLeaf() {
				lo[i], hi[i] = childBounds(v.rep, pos, lo[i], hi[i])
				next = v.children[pos]
			}
			cur[i] = next
			if next == nil {
				live--
			}
		}
	}
}

// VersionItems flattens a pinned Version into freshly allocated sorted
// key/value arrays (§7.2). The caller must hold a ReaderPin taken
// before the Version was loaded and keep it until VersionItems
// returns; the sharded frontend uses this to merge one consistent cut
// across all shards.
func (t *Tree[K, V]) VersionItems(v *Version[K, V]) ([]K, []V) {
	if v == nil || v.root == nil {
		return nil, nil
	}
	outK := make([]K, v.size)
	outV := make([]V, v.size)
	t.fillFlat(v.root, outK, outV)
	return outK, outV
}

// VersionRange returns the live pairs of a pinned Version with keys in
// [lo, hi], ascending, in freshly allocated arrays: the bounded
// ascendNode walk of AppendRangeKV over v's root. The pin contract is
// VersionItems'.
func (t *Tree[K, V]) VersionRange(v *Version[K, V], lo, hi K) ([]K, []V) {
	if v == nil || hi < lo {
		return nil, nil
	}
	var ks []K
	var vs []V
	ascendNode(v.root, &lo, &hi, func(k K, val V) bool {
		ks = append(ks, k)
		vs = append(vs, val)
		return true
	})
	return ks, vs
}

// owned returns a node the current generation may write to: v itself
// when it was created in this generation, otherwise a copy (path
// copying). What one copy costs is what the epoch writes next:
//
//   - An inner copy owns only its children array, the one array every
//     write below it touches. It aliases the frozen original's rep and
//     interpolation index (immutable between rebuilds) and its
//     vals/exists slots, and sets sharedSlots; ownSlots copies the slots just before the first
//     slot write at this node. The recursions' sequential form calls
//     it only when a batch key writes a slot of the node's rep, so a
//     small epoch whose keys live deeper never copies them; where they
//     fork (more than seqSegCutoff keys at the node, which almost
//     always include one in its rep) they call it before the parallel
//     loop. The write's sequential form also copies a node only once a
//     write reaches it or its subtree, so keys that write nothing (a
//     Delete of an absent key) copy no node at all.
//   - A leaf copy duplicates rep/vals/exists, because leaf reps mutate
//     on insertion, with capacity for one more key plus leafSlack
//     headroom, so the insert that triggered the copy merges in place
//     (mergeLeaf) instead of allocating a second time.
//
// Every copy is marked own. Only a recycling walk (t.recycle: the walk
// runs sequentially from the root, so the spares and free stacks stay
// confined to one goroutine) retires or reuses graced storage. There,
// an own v other than the root enters grace stamped with the current
// era: only PublishVersion advances the era, after its swap, so this
// is the stamp the publish that supersedes v gives its spare root. A
// copy of the inner root is a graced spare root when one fits
// (spareRootCopy), which writes only the children written since the
// spare was live, and any other copy is a graced node of the size a
// fresh copy would have, within a capacity class, popped from a free
// stack when one is there. Other walks copy into fresh nodes and
// retire nothing. The chunk handle rides along (see chunkHandle). On a tree that never
// published, writeGen and every node generation are zero and this is
// one predictable branch.
func (t *Tree[K, V]) owned(v *node[K, V]) *node[K, V] {
	if v.gen == t.writeGen {
		return v
	}
	if o := t.obs; o != nil {
		o.nodeCopies.Add(1)
	}
	leaf := v.children == nil
	need, c := len(v.children), len(v.children)
	if leaf {
		need = len(v.rep) + 1
		c = leafGrowCap(need)
	}
	var cp *node[K, V]
	if t.recycle {
		m := t.mv
		if v != t.root {
			if v.own && len(m.grace) < pathGraceCap {
				m.grace = append(m.grace, retiredNode[K, V]{n: v, stamp: m.era.Load()})
			}
		} else if !leaf {
			if cp = t.spareRootCopy(v); cp != nil {
				return cp
			}
		}
		cp = m.pop(leaf, c, need)
	}
	if cp == nil {
		cp = new(node[K, V])
		if leaf {
			cp.rep, cp.vals, cp.exists = make([]K, 0, c), make([]V, 0, c), make([]bool, 0, c)
		} else {
			cp.children = make([]*node[K, V], 0, c)
		}
	}
	rep, vals, exists, children := cp.rep, cp.vals, cp.exists, cp.children
	*cp = node[K, V]{
		idx:      v.idx,
		size:     v.size,
		initSize: v.initSize,
		modCnt:   v.modCnt,
		gen:      t.writeGen,
		own:      true,
		chunk:    v.chunk,
	}
	if leaf {
		cp.rep = append(rep[:0], v.rep...)
		cp.vals = append(vals[:0], v.vals...)
		cp.exists = append(exists[:0], v.exists...)
	} else {
		cp.rep, cp.vals, cp.exists = v.rep, v.vals, v.exists
		cp.sharedSlots = true
		cp.children = append(children[:0], v.children...)
	}
	return cp
}

// kind indexes the free stacks: inner nodes and leaves recycle
// different arrays.
func kind(leaf bool) int {
	if leaf {
		return 1
	}
	return 0
}

// sizeClass returns the index of the capacity class of c ≥ 1
// elements. Class capacities have the form m·2^e with 4 < m ≤ 8, four
// per power of two, so the capacities within one class differ by less
// than a quarter; up to 8 every capacity is a class of its own.
func sizeClass(c int) int {
	if c < 8 {
		return c
	}
	e := bits.Len(uint(c)) - 3
	return 4*e + c>>e
}

// pop takes a graced node of its kind from the free stack of the class
// of capacity c, if the node on top holds at least need elements;
// nil otherwise.
func (m *mvccState[K, V]) pop(leaf bool, c, need int) *node[K, V] {
	k := sizeClass(c)
	if k >= nodeClasses {
		return nil
	}
	s := &m.free[kind(leaf)][k]
	top := len(*s) - 1
	if top < 0 || nodeCap((*s)[top]) < need {
		return nil
	}
	n := (*s)[top]
	(*s)[top] = nil
	*s = (*s)[:top]
	m.nfree--
	if m.pathsRecycled != nil {
		m.pathsRecycled.Add(1)
	}
	return n
}

// nodeCap is the element capacity of the arrays a node owns: its
// children array, or the smallest of a leaf's three.
func nodeCap[K iindex.Numeric, V any](n *node[K, V]) int {
	if n.children != nil {
		return cap(n.children)
	}
	return min(cap(n.rep), cap(n.vals), cap(n.exists))
}

// push puts a graced own node on the free stack of its kind and the
// class of its capacity. A full stack drops the node to the GC. The
// node is cleared down to its arrays, and its child pointers and
// values are zeroed, so a free node keeps nothing else alive.
func (m *mvccState[K, V]) push(n *node[K, V]) {
	leaf := n.children == nil
	k := sizeClass(nodeCap(n))
	if k >= nodeClasses {
		return
	}
	s := &m.free[kind(leaf)][k]
	if len(*s) == freeNodesCap {
		return
	}
	if leaf {
		clear(n.vals[:cap(n.vals)])
		*n = node[K, V]{rep: n.rep[:0], vals: n.vals[:0], exists: n.exists[:0]}
	} else {
		clear(n.children[:cap(n.children)])
		*n = node[K, V]{children: n.children[:0]}
	}
	*s = append(*s, n)
	m.nfree++
}

// drainPaths moves every graced path copy to the free stacks: graced
// proves no reader can still reach it, and a generation later than the
// durable-snapshot cutoff proves no Snapshot can. A node that fails
// the cutoff goes to the GC. Combiner-confined.
func (m *mvccState[K, V]) drainPaths() {
	era := m.era.Load()
	cutoff := m.snapCutoff.Load()
	i := 0
	for ; i < len(m.grace) && graced(m.grace[i].stamp, era); i++ {
		if n := m.grace[i].n; n.gen > cutoff {
			m.push(n)
		}
	}
	if i > 0 {
		k := copy(m.grace, m.grace[i:])
		clear(m.grace[k:])
		m.grace = m.grace[:k]
	}
}

// spareRootCopy is owned's copy of the inner root v made from the
// oldest spare root that passes three checks: graced (so no pinned
// reader can reach it), born after the durable-snapshot cutoff (so no
// Snapshot can), and as wide as v. The spare is synced to v by rewriting the root slots written
// since it was live: the root log names them (logRootSlot), so the
// sync costs the slots written, not the root's width. When the log
// cannot cover the spare — it was born below logFloor, or the root
// was replaced since by a build rather than a path copy (a different
// chunk handle) — the sync falls back to a diff of every child
// pointer. The spare's header is reset from v exactly as owned resets
// a fresh copy's. Spares that fail the cutoff or width check, which
// follows a root rebuild, are dropped to the GC. nil when no spare is
// usable. Only recycling walks call it (see owned).
func (t *Tree[K, V]) spareRootCopy(v *node[K, V]) *node[K, V] {
	m := t.mv
	era := m.era.Load()
	cutoff := m.snapCutoff.Load()
	for len(m.spares) > 0 {
		sp := m.spares[0]
		if !graced(sp.stamp, era) {
			return nil // stamps only grow: no younger spare is graced
		}
		m.spares = dropOldest(m.spares)
		cp := sp.n
		if cp.gen <= cutoff || len(cp.children) != len(v.children) {
			continue
		}
		ch := cp.children[:len(v.children)]
		if cp.gen >= m.logFloor && cp.chunk == v.chunk {
			m.syncLogged(ch, v.children, cp.gen)
		} else {
			for i, c := range v.children {
				if ch[i] != c {
					ch[i] = c
				}
			}
		}
		*cp = node[K, V]{
			rep:         v.rep,
			vals:        v.vals,
			exists:      v.exists,
			children:    ch,
			idx:         v.idx,
			size:        v.size,
			initSize:    v.initSize,
			modCnt:      v.modCnt,
			gen:         t.writeGen,
			sharedSlots: true,
			chunk:       v.chunk,
		}
		if m.rootsRecycled != nil {
			m.rootsRecycled.Add(1)
		}
		return cp
	}
	return nil
}

// logRootSlot records that the current generation gen wrote root
// child slot. The ring keeps the last rootLogCap entries; an evicted
// entry raises logFloor to its generation, since a spare born before
// it can no longer be synced from the log.
func (m *mvccState[K, V]) logRootSlot(gen uint64, slot int32) {
	if m.logLen == rootLogCap {
		m.logFloor = max(m.logFloor, m.rootLog[m.logNext].gen)
	} else {
		m.logLen++
	}
	m.rootLog[m.logNext] = rootSlot{gen: gen, slot: slot}
	m.logNext = (m.logNext + 1) % rootLogCap
}

// syncLogged rewrites the children ch of a spare root born in
// generation gen from the frozen root's children at every slot logged
// in a later generation, newest first. Entries are appended in
// generation order, so the scan stops at the first one at or below
// gen.
func (m *mvccState[K, V]) syncLogged(ch, from []*node[K, V], gen uint64) {
	j := m.logNext
	for range m.logLen {
		if j == 0 {
			j = rootLogCap
		}
		j--
		e := m.rootLog[j]
		if e.gen <= gen {
			return
		}
		ch[e.slot] = from[e.slot]
	}
}

// dropOldest removes the oldest spare root, clearing the vacated slot
// so the FIFO keeps no dropped node alive.
func dropOldest[K iindex.Numeric, V any](s []retiredNode[K, V]) []retiredNode[K, V] {
	copy(s, s[1:])
	s[len(s)-1] = retiredNode[K, V]{}
	return s[:len(s)-1]
}

// ownSlots gives an inner copy private vals/exists arrays before its
// first slot write (see owned). Every slot-write site calls it: the
// sequential ones inside their found-key branch, the parallel ones
// unconditionally. Nodes that own their slots — every node of a tree
// that never published — pay one branch.
func (t *Tree[K, V]) ownSlots(v *node[K, V]) {
	if !v.sharedSlots {
		return
	}
	if o := t.obs; o != nil {
		o.slotCopies.Add(1)
	}
	v.vals = append(make([]V, 0, len(v.vals)), v.vals...)
	v.exists = append(make([]bool, 0, len(v.exists)), v.exists...)
	v.sharedSlots = false
}

// retireSubtree walks a subtree just replaced by a rebuild and moves
// every chunk handle it roots into the grace ring. Only meaningful on
// a publishing tree: older versions (and pinned readers) may still
// reach this storage, so it must wait out the grace period before the
// arrays recycle. Non-publishing trees leave retirement to the GC.
func (t *Tree[K, V]) retireSubtree(v *node[K, V]) {
	if t.mv == nil || v == nil {
		return
	}
	t.mv.ringMu.Lock()
	t.collectRetired(v, t.mv.era.Load())
	t.mv.ringMu.Unlock()
}

func (t *Tree[K, V]) collectRetired(v *node[K, V], era uint64) {
	if v.chunk != nil {
		m := t.mv
		if len(m.ring) >= retireRingCap {
			// Ring full: drop to the GC rather than grow without bound.
			if m.dropped != nil {
				m.dropped.Add(1)
			}
		} else {
			m.ring = append(m.ring, retiredChunk[K, V]{ch: v.chunk.ch, born: v.chunk.born, stamp: era})
			if m.retired != nil {
				m.retired.Add(1)
			}
		}
	}
	for _, c := range v.children {
		if c != nil {
			t.collectRetired(c, era)
		}
	}
}

// drainRetired recycles every graced ring entry: graced proves no
// reader can still reach the chunk, and a born generation later than the durable-snapshot cutoff proves no
// Snapshot can either. Recycled arrays re-enter the tree arena's
// scratch free lists — the same pools the flatten/merge buffers cycle
// through — and chunks a snapshot may still reference are dropped to
// the GC instead. Combiner-confined.
func (t *Tree[K, V]) drainRetired() {
	m := t.mv
	if len(m.ring) == 0 {
		return
	}
	era := m.era.Load()
	cutoff := m.snapCutoff.Load()
	w := 0
	for _, rc := range m.ring {
		if !graced(rc.stamp, era) {
			m.ring[w] = rc
			w++
			continue
		}
		if rc.born > cutoff {
			t.ar.keys.Put(rc.ch.Keys)
			t.ar.vals.Put(rc.ch.Vals)
			t.ar.bools.Put(rc.ch.Exists)
			if m.recycled != nil {
				m.recycled.Add(1)
			}
		} else if m.dropped != nil {
			m.dropped.Add(1)
		}
	}
	for i := w; i < len(m.ring); i++ {
		m.ring[i] = retiredChunk[K, V]{}
	}
	m.ring = m.ring[:w]
}
