package core

import "repro/internal/iindex"

// Ordered queries beyond membership: extrema, range extraction,
// counting, and order statistics. These are standard sorted-map API
// surface (std::map exposes the equivalents through iterators) and all
// respect logical deletion — dead keys are invisible. Key-returning
// queries carry the stored value along; set instantiations
// (V = struct{}) simply ignore it.

// Min returns the smallest live key and its value; ok is false when
// the tree is empty. Cost O(height · fanout) worst case; the size
// counters let the walk skip all-dead subtrees.
func (t *Tree[K, V]) Min() (key K, val V, ok bool) {
	v := t.root
	for v != nil && v.size > 0 {
		if v.isLeaf() {
			for i, x := range v.rep {
				if v.exists[i] {
					return x, v.vals[i], true
				}
			}
			return key, val, false // unreachable while size > 0
		}
		descended := false
		for i := range v.rep {
			if c := v.children[i]; c != nil && c.size > 0 {
				v, descended = c, true
				break
			}
			if v.exists[i] {
				return v.rep[i], v.vals[i], true
			}
		}
		if !descended {
			v = v.children[len(v.rep)]
		}
	}
	return key, val, false
}

// Max returns the largest live key and its value; ok is false when the
// tree is empty.
func (t *Tree[K, V]) Max() (key K, val V, ok bool) {
	v := t.root
	for v != nil && v.size > 0 {
		if v.isLeaf() {
			for i := len(v.rep) - 1; i >= 0; i-- {
				if v.exists[i] {
					return v.rep[i], v.vals[i], true
				}
			}
			return key, val, false // unreachable while size > 0
		}
		if c := v.children[len(v.rep)]; c != nil && c.size > 0 {
			v = c
			continue
		}
		descended := false
		for i := len(v.rep) - 1; i >= 0; i-- {
			if v.exists[i] {
				return v.rep[i], v.vals[i], true
			}
			if c := v.children[i]; c != nil && c.size > 0 {
				v, descended = c, true
				break
			}
		}
		if !descended {
			return key, val, false // unreachable while size > 0
		}
	}
	return key, val, false
}

// Range returns the live keys in [lo, hi] in ascending order.
func (t *Tree[K, V]) Range(lo, hi K) []K {
	keys, _ := t.AppendRangeKV(nil, nil, lo, hi)
	return keys
}

// RangeKV returns the live keys in [lo, hi] in ascending order
// together with their values, position-aligned.
func (t *Tree[K, V]) RangeKV(lo, hi K) ([]K, []V) {
	return t.AppendRangeKV(nil, nil, lo, hi)
}

// AppendRangeKV appends the live keys in [lo, hi], ascending, to dstK
// and their values to dstV, returning the extended slices. It shares
// the bounded walk of the Ascend iterator (iter.go): only the two
// boundary root-to-leaf paths inspect keys individually, so the cost
// is O(log log n + output) on a balanced tree.
func (t *Tree[K, V]) AppendRangeKV(dstK []K, dstV []V, lo, hi K) ([]K, []V) {
	if hi < lo {
		return dstK, dstV
	}
	ascendNode(t.root, &lo, &hi, func(k K, v V) bool {
		dstK = append(dstK, k)
		dstV = append(dstV, v)
		return true
	})
	return dstK, dstV
}

// CountRange reports the number of live keys in [lo, hi] without
// materializing them: covered subtrees contribute their cached sizes,
// so only the two boundary paths recurse.
func (t *Tree[K, V]) CountRange(lo, hi K) int {
	if hi < lo {
		return 0
	}
	return countRange(t.root, &lo, &hi)
}

func countRange[K iindex.Numeric, V any](v *node[K, V], lo, hi *K) int {
	if v == nil || v.size == 0 {
		return 0
	}
	if lo == nil && hi == nil {
		return v.size
	}
	inRange := func(x K) bool {
		return (lo == nil || *lo <= x) && (hi == nil || x <= *hi)
	}
	n := 0
	if v.isLeaf() {
		for i, x := range v.rep {
			if v.exists[i] && inRange(x) {
				n++
			}
		}
		return n
	}
	k := len(v.rep)
	start, end := 0, k
	if lo != nil {
		start = lowerBoundKeys(v.rep, *lo)
	}
	if hi != nil {
		end = upperBoundKeys(v.rep, *hi)
	}
	for i := start; i <= end; i++ {
		clo, chi := lo, hi
		if i > start {
			clo = nil
		}
		if i < end {
			chi = nil
		}
		n += countRange(v.children[i], clo, chi)
		if i < end && v.exists[i] && inRange(v.rep[i]) {
			n++
		}
	}
	return n
}

// Select returns the idx-th smallest live key (0-based) and its value;
// ok is false when idx is out of range. Cached subtree sizes make each
// level a prefix scan over one node's sources.
func (t *Tree[K, V]) Select(idx int) (key K, val V, ok bool) {
	v := t.root
	if v == nil || idx < 0 || idx >= v.size {
		return key, val, false
	}
	for {
		if v.isLeaf() {
			for i, x := range v.rep {
				if !v.exists[i] {
					continue
				}
				if idx == 0 {
					return x, v.vals[i], true
				}
				idx--
			}
			return key, val, false // unreachable: idx < live count
		}
		descended := false
		for i := range v.rep {
			if c := v.children[i]; c != nil {
				if idx < c.size {
					v, descended = c, true
					break
				}
				idx -= c.size
			}
			if v.exists[i] {
				if idx == 0 {
					return v.rep[i], v.vals[i], true
				}
				idx--
			}
		}
		if !descended {
			v = v.children[len(v.rep)]
		}
	}
}

// RankOf reports the number of live keys strictly less than key.
func (t *Tree[K, V]) RankOf(key K) int {
	v := t.root
	rank := 0
	for v != nil {
		var pos int
		var found bool
		if v.isLeaf() {
			pos, found = iindex.InterpolationSearch(v.rep, key)
		} else {
			pos, found = iindex.Find(v.rep, &v.idx, key)
		}
		for i := 0; i < pos; i++ {
			if !v.isLeaf() {
				if c := v.children[i]; c != nil {
					rank += c.size
				}
			}
			if v.exists[i] {
				rank++
			}
		}
		if v.isLeaf() {
			return rank
		}
		if found {
			if c := v.children[pos]; c != nil {
				rank += c.size
			}
			return rank
		}
		v = v.children[pos]
	}
	return rank
}

func lowerBoundKeys[K iindex.Numeric](s []K, x K) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func upperBoundKeys[K iindex.Numeric](s []K, x K) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
