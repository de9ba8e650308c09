package parallel

import "slices"

// sortCutoff is the size below which SortedDedup falls back to the
// standard library's pattern-defeating quicksort.
const sortCutoff = 4096

// SortedDedup sorts a and removes duplicates, returning the distinct
// keys as a prefix of a. It is the standard batch normalization step
// for callers that cannot guarantee sorted duplicate-free input, since
// every batched operation of the paper assumes its input batch is
// sorted. A parallel merge sort whose merge is UnionKVInto: each half
// comes back sorted and duplicate-free, so their union is too.
// O(n log n) work.
func SortedDedup[K Ordered](p *Pool, a []K) []K {
	if len(a) <= sortCutoff || p.sequential() {
		slices.Sort(a)
		return slices.Compact(a)
	}
	buf := make([]K, len(a))
	return a[:sortDedupInto(p, a, buf, false)]
}

// sortDedupInto sorts and deduplicates src and returns the number n of
// distinct keys, left in src[:n] if toBuf is false and in buf[:n]
// otherwise. The two buffers ping-pong across recursion levels so each
// merge copies once.
func sortDedupInto[K Ordered](p *Pool, src, buf []K, toBuf bool) int {
	if len(src) <= sortCutoff {
		slices.Sort(src)
		n := len(slices.Compact(src))
		if toBuf {
			copy(buf, src[:n])
		}
		return n
	}
	mid := len(src) / 2
	var l, r int
	p.Do(
		func() { l = sortDedupInto(p, src[:mid], buf[:mid], !toBuf) },
		func() { r = sortDedupInto(p, src[mid:], buf[mid:], !toBuf) },
	)
	from, to := buf, src
	if toBuf {
		from, to = src, buf
	}
	none := make([]struct{}, len(src)) // zero-size elements: no allocation
	out, _ := UnionKVInto(p, from[:l], none[:l], from[mid:mid+r], none[:r], to, none)
	return len(out)
}
