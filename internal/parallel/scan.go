package parallel

// ScanInPlace overwrites arr with its exclusive prefix sums (§2.4),
//
//	arr[i] = arr[0] + arr[1] + ... + arr[i-1],  arr[0] = 0,
//
// and returns the total sum of the original values. The classic
// two-pass blocked algorithm gives O(n) work and O(log n) span: block
// sums are reduced in parallel, block offsets are scanned, and each
// block is then swept independently. Writing in place avoids an output
// allocation for callers that no longer need the original values
// (e.g. the flatten step of §7.2).
func ScanInPlace(p *Pool, arr []int) (total int) {
	n := len(arr)
	if n == 0 {
		return 0
	}
	blocks := scanBlocks(p, n)
	if blocks == 1 {
		// One block: plain sequential sweep, no side allocations —
		// this is the hot shape on the tree's small-subtree paths.
		running := 0
		for i := range arr {
			arr[i], running = running, running+arr[i]
		}
		return running
	}
	bs := (n + blocks - 1) / blocks

	sums := make([]int, blocks)
	For(p, blocks, 1, func(b int) {
		lo, hi := b*bs, min((b+1)*bs, n)
		s := 0
		for i := lo; i < hi; i++ {
			s += arr[i]
		}
		sums[b] = s
	})
	running := 0
	for b := range sums {
		sums[b], running = running, running+sums[b]
	}
	For(p, blocks, 1, func(b int) {
		lo, hi := b*bs, min((b+1)*bs, n)
		s := sums[b]
		for i := lo; i < hi; i++ {
			arr[i], s = s, s+arr[i]
		}
	})
	return running
}

// scanBlocks picks the number of blocks used by the two-pass scan: at
// most one block per worker times a small oversubscription factor, and
// never so many that blocks degenerate below a useful size. A pool
// that cannot fork gets one block, so the blocked passes and their
// bookkeeping run only where they can spread over workers.
func scanBlocks(p *Pool, n int) int {
	if p.sequential() {
		return 1
	}
	blocks := p.Workers() * 4
	if maxUseful := (n + 511) / 512; blocks > maxUseful {
		blocks = maxUseful
	}
	if blocks < 1 {
		blocks = 1
	}
	return blocks
}
