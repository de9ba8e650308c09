package pbist

import (
	"repro/internal/combine"
	"repro/internal/shard"
)

// ConcurrentOptions configures one combiner of a Sharded frontend:
// the engine Options plus the combiner's epoch tracing. A Concurrent
// takes it directly; a multi-shard Sharded embeds it in
// ShardedOptions and applies it to every shard. The zero value gives
// sensible defaults.
//
// Once writes are queued, the writer that runs the next epoch takes
// everything queued as one epoch, so whatever arrives while one epoch
// runs forms the next. A lone client is not delayed, and n active
// clients coalesce into epochs of up to n writes. A queued writer
// polls for its answer for a few microseconds before it blocks, so
// most writes return without a trip through the Go scheduler; with
// GOMAXPROCS at 1 it blocks at once. If an epoch panics, its shard
// fails closed: that write and every later write to the shard panic
// with the first panic's value.
type ConcurrentOptions struct {
	Options
	// TraceDepth bounds the per-combiner ring of recent epoch traces
	// readable through Trace. 0 keeps a default-depth ring when
	// Options.Metrics is set and disables tracing otherwise; setting
	// it enables tracing even without a registry.
	TraceDepth int
}

func (o ConcurrentOptions) combineOptions() combine.Options {
	return combine.Options{
		Metrics:    o.Metrics,
		TraceDepth: o.TraceDepth,
	}
}

// Concurrent is the one-shard Sharded: the paper's single batched
// tree served to arbitrarily many goroutines, writes through one
// combining queue and reads from its published version. With one shard every batch is a single-shard batch, so
// PutBatch and DeleteBatch are atomic, as GetBatch and ContainsBatch
// are on any shard count, and Snapshot shares chunk storage with the
// live tree in O(changed).
// See Sharded for the method set and its consistency guarantees.
type Concurrent[K Key, V any] = Sharded[K, V]

// NewConcurrent returns an empty one-shard frontend. It starts no
// goroutine: its writers run the combining epochs themselves.
func NewConcurrent[K Key, V any](opts ConcurrentOptions) *Concurrent[K, V] {
	return newSharded[K, V](oneShard(opts), opts.pool(), shard.NewRanges[K](nil), nil, nil)
}

// NewConcurrentFromItems returns a one-shard frontend bulk-loaded
// with the (keys[i], vals[i]) pairs (last occurrence of a duplicated
// key wins, as in NewMapFromItems). Neither input slice is retained.
func NewConcurrentFromItems[K Key, V any](opts ConcurrentOptions, keys []K, vals []V) *Concurrent[K, V] {
	return NewShardedFromItems(oneShard(opts), keys, vals)
}

func oneShard(opts ConcurrentOptions) ShardedOptions {
	return ShardedOptions{ConcurrentOptions: opts, Shards: 1}
}

// ConcurrentStats is a snapshot of combining behavior since
// construction: how well a combiner, or a whole shard group, is
// turning concurrent single-key writes into batches. See combine.Stats
// for the fields.
type ConcurrentStats = combine.Stats
