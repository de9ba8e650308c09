// Package iindex implements the lightweight interpolation index of an
// interpolation search tree node (paper §3.2, following Mehlhorn &
// Tsakalidis) and the one search kernel every tree node runs on it.
//
// An Index over a sorted array Rep with value range [a, b] is the ID
// array: ID[i] counts the elements of Rep that are at most
// a + i·(b−a)/m. Looking up a key x costs one multiplication to find
// bucket ⌊(x−a)/(b−a)·m⌋ and one array read, and yields a position
// estimate whose error is the occupancy of one bucket — expected O(1)
// when keys come from a smooth distribution (§3.5).
//
// Every tree search is one position estimate refined by one walk.
// Find is Approx plus Walk: Walk is the paper's linear walk (Fig. 5),
// capped at a constant number of steps and finished by binary search
// on the remaining range. The cap only strengthens the worst case
// (O(log k) per node instead of O(k)) and leaves the smooth-input
// expected cost at O(1), matching the O(log² n) worst-case search
// bound quoted in §3.5. Leaf reps mutate between rebuilds and carry no
// index, so SearchLeaf estimates with one interpolated probe between
// the separators the parent node already read (LeafProbe) and refines
// with the same Walk.
package iindex

import "math"

// Numeric is the constraint for interpolatable keys: types with a
// total order and an order-preserving conversion to float64. The
// conversion is what lets the index map a key to a bucket with one
// multiplication.
type Numeric interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// maxWalk bounds the linear refinement walk before Walk falls back to
// binary search. 16 covers several buckets of estimate error while
// keeping the worst case logarithmic.
const maxWalk = 16

// Index is the ID array of one node. The zero value is a valid
// degenerate index whose estimates are always position 0 (Find then
// behaves like a capped-walk binary search).
type Index struct {
	id    []int32
	a     float64 // value of rep[0]
	scale float64 // m / (b − a)
}

// DefaultSizeFactor is the ID-array length as a multiple of len(rep).
// The paper asks for m ∈ Θ(n^ε), ε ∈ [½, 1); since every key is stored
// in exactly one Rep across the tree, m = |Rep| keeps total index space
// linear in n while giving each bucket expected occupancy 1.
const DefaultSizeFactor = 1.0

// Build constructs the index for the sorted, duplicate-free slice rep.
// sizeFactor scales the number of buckets relative to len(rep);
// sizeFactor <= 0 selects DefaultSizeFactor. Building costs
// O(len(rep) + m) time and m+1 int32 words of space.
func Build[K Numeric](rep []K, sizeFactor float64) Index {
	k := len(rep)
	if k < 2 {
		return Index{}
	}
	if sizeFactor <= 0 {
		sizeFactor = DefaultSizeFactor
	}
	a, b := float64(rep[0]), float64(rep[k-1])
	if !(b > a) {
		// Zero (or NaN) value range: interpolation cannot discriminate.
		return Index{}
	}
	m := int(float64(k) * sizeFactor)
	if m < 2 {
		m = 2
	}
	id := make([]int32, m+1)
	width := (b - a) / float64(m)
	j := 0
	for i := 0; i <= m; i++ {
		bound := a + float64(i)*width
		if i == m {
			bound = b // avoid rounding the last bucket short
		}
		for j < k && float64(rep[j]) <= bound {
			j++
		}
		id[i] = int32(j)
	}
	return Index{id: id, a: a, scale: float64(m) / (b - a)}
}

// Approx returns an estimated position of x in the indexed array: an
// index p such that rep[p] is expected to be near the true lower-bound
// position of x. For the zero Index, and for a NaN key, it returns 0.
func (ix *Index) Approx(xf float64) int {
	m := len(ix.id) - 1
	if m < 0 {
		return 0
	}
	f := (xf - ix.a) * ix.scale
	if !(f > 0) {
		return 0 // x at or below a, also NaN
	}
	if f >= float64(m) {
		return int(ix.id[m])
	}
	return int(ix.id[int(f)])
}

// Buckets reports the number of buckets (m) of the index; 0 for the
// degenerate index.
func (ix *Index) Buckets() int {
	if len(ix.id) == 0 {
		return 0
	}
	return len(ix.id) - 1
}

// Bytes reports the approximate memory footprint of the index in bytes.
func (ix *Index) Bytes() int {
	return 4 * len(ix.id)
}

// Find locates x in the sorted slice rep using the index: it returns
// the lower-bound position of x (the first index with rep[pos] >= x,
// which is also x's insertion position) and whether rep[pos] == x.
// It is Approx plus Walk. Expected O(1) on smooth input,
// O(log len(rep)) worst case.
func Find[K Numeric](rep []K, ix *Index, x K) (pos int, found bool) {
	h := ix.Approx(float64(x))
	if h > len(rep) {
		h = len(rep)
	}
	return Walk(rep, h, x)
}

// Walk refines the position estimate h, 0 <= h <= len(rep), of x in
// the sorted duplicate-free slice rep into x's lower-bound position
// and whether rep[pos] == x, with the linear walk of Fig. 5: at most
// maxWalk steps towards x, then binary search on the rest of the
// range. An estimate that lands on x costs two comparisons, one off by
// d positions O(min(d, log len(rep))).
func Walk[K Numeric](rep []K, h int, x K) (pos int, found bool) {
	n := len(rep)
	if h < n && rep[h] < x {
		// Walk right (paper Fig. 5a) towards the first element >= x.
		lo := h + 1
		for steps := 0; ; steps++ {
			if lo >= n || rep[lo] >= x {
				pos = lo
				break
			}
			if steps == maxWalk {
				pos = lo + lowerBound(rep[lo:], x)
				break
			}
			lo++
		}
	} else {
		// Walk left (paper Fig. 5b) past elements >= x.
		hi := h
		for steps := 0; ; steps++ {
			if hi == 0 || rep[hi-1] < x {
				pos = hi
				break
			}
			if steps == maxWalk {
				pos = lowerBound(rep[:hi], x)
				break
			}
			hi--
		}
	}
	return pos, pos < n && rep[pos] == x
}

// LeafProbe estimates the lower-bound position of x in the sorted
// duplicate-free slice rep, all of whose elements lie between the
// separators lo and hi (the float images of the parent's rep[pos-1]
// and rep[pos]): one interpolated probe at ⌊(x−lo)/(hi−lo)·len(rep)⌋,
// clamped to [0, len(rep)]. A side passed as -Inf or +Inf (no
// separator on that side) stands in as rep's own first or last
// element. The clamp is NaN-safe, so equal or collapsed float images
// yield a valid estimate.
func LeafProbe[K Numeric](rep []K, lo, hi float64, x K) int {
	n := len(rep)
	if n == 0 {
		return 0
	}
	if math.IsInf(lo, -1) {
		lo = float64(rep[0])
	}
	if math.IsInf(hi, 1) {
		hi = float64(rep[n-1])
	}
	f := (float64(x) - lo) / (hi - lo) * float64(n)
	if !(f > 0) {
		return 0 // also NaN
	}
	if f >= float64(n) {
		return n
	}
	return int(f)
}

// SearchLeaf locates x in the sorted duplicate-free slice rep whose
// elements lie between the separators lo and hi: LeafProbe plus Walk,
// with Find's (lower-bound position, found) contract. Pass -Inf and
// +Inf for a rep without separators. Expected O(1) probes when rep's
// keys are spread smoothly between the separators, O(log len(rep))
// worst case.
func SearchLeaf[K Numeric](rep []K, lo, hi float64, x K) (pos int, found bool) {
	return Walk(rep, LeafProbe(rep, lo, hi, x), x)
}

// lowerBound returns the first index of sorted rep whose element is not
// less than x.
func lowerBound[K Numeric](rep []K, x K) int {
	lo, hi := 0, len(rep)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rep[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
