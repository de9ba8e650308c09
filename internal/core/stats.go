package core

import "repro/internal/iindex"

// Stats summarizes the structure of a tree, for inspection tools and
// balance tests, plus the counters of its scratch arena, which track
// the memory behavior of the rebuild engine. pbist exports it as the
// Stats of a Tree or Map.
type Stats struct {
	LiveKeys   int // keys logically stored
	DeadKeys   int // logically removed keys awaiting a rebuild
	Nodes      int // total nodes, leaves included
	Leaves     int // leaf nodes
	Height     int // nodes on the longest root-to-leaf path; 0 when empty
	RootRepLen int // length of the root's Rep array (Θ(√n) when balanced)
	MaxLeafLen int // longest leaf array
	IndexBytes int // memory held by interpolation indexes

	// ScratchGets counts internal scratch-buffer requests since
	// construction and ScratchReuses how many were served by a
	// recycled buffer; their ratio is the arena hit rate, which climbs
	// toward 1 as the tree reaches steady state (and stays 0 with
	// buffer reuse disabled). ChunkBuilds counts chunked subtree
	// (re)builds and ChunkKeys the key slots those builds laid out
	// contiguously.
	ScratchGets   int64
	ScratchReuses int64
	ChunkBuilds   int64
	ChunkKeys     int64

	// LeafGrows counts leaf merges that outgrew their arrays and
	// reallocated, each with 1.5 times its key count in capacity.
	LeafGrows int64
}

// Stats computes shape statistics in one O(n) traversal and snapshots
// the arena counters.
func (t *Tree[K, V]) Stats() Stats {
	var s Stats
	if t.root != nil {
		s.RootRepLen = len(t.root.rep)
	}
	statsRec(t.root, 1, &s)
	s.ScratchGets, s.ScratchReuses = t.ar.scratchStats()
	s.ChunkBuilds = t.ar.chunkBuilds.Load()
	s.ChunkKeys = t.ar.chunkKeys.Load()
	s.LeafGrows = t.ar.leafGrows.Load()
	return s
}

func statsRec[K iindex.Numeric, V any](v *node[K, V], depth int, s *Stats) {
	if v == nil {
		return
	}
	s.Nodes++
	if depth > s.Height {
		s.Height = depth
	}
	s.IndexBytes += v.idx.Bytes()
	for _, ok := range v.exists {
		if ok {
			s.LiveKeys++
		} else {
			s.DeadKeys++
		}
	}
	if v.isLeaf() {
		s.Leaves++
		if len(v.rep) > s.MaxLeafLen {
			s.MaxLeafLen = len(v.rep)
		}
		return
	}
	for _, c := range v.children {
		statsRec(c, depth+1, s)
	}
}

// Height reports the number of nodes on the longest root-to-leaf path.
func (t *Tree[K, V]) Height() int {
	return heightRec(t.root)
}

func heightRec[K iindex.Numeric, V any](v *node[K, V]) int {
	if v == nil {
		return 0
	}
	h := 0
	for _, c := range v.children {
		if ch := heightRec(c); ch > h {
			h = ch
		}
	}
	return h + 1
}
