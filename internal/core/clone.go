package core

// Clone returns a deep, fully detached copy of the tree: one parallel
// flatten of the receiver (§7.2) into arena scratch, one chunked ideal
// rebuild (§7.3) into the clone — O(n) work and polylogarithmic span.
// The clone shares the receiver's configuration and worker pool but
// owns its own root, node storage, and arena, so subsequent batched
// operations on either tree can never be observed through the other.
// It is also ideally balanced even when the receiver is mid-churn,
// which makes Clone a compaction: logically removed keys do not carry
// over.
//
// Values are copied by assignment; for pointer-typed V both trees
// share the pointed-to data, as with any shallow value copy.
func (t *Tree[K, V]) Clone() *Tree[K, V] {
	res := New[K, V](t.cfg, t.pool)
	if t.root == nil {
		return res
	}
	fk, fv := t.flattenScratch(t.root)
	res.root = res.buildIdeal(fk, fv)
	t.ar.putKV(fk, fv)
	return res
}
