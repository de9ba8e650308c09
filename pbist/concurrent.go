package pbist

import (
	"time"

	"repro/internal/combine"
)

// ConcurrentOptions configures one combiner of a Sharded frontend:
// the engine Options plus the combining flush policy. A Concurrent
// takes it directly; a multi-shard Sharded embeds it in
// ShardedOptions and applies it to every shard. The zero value gives
// sensible defaults.
type ConcurrentOptions struct {
	Options
	// MaxBatch is the size trigger of the combiner: an epoch is
	// flushed as soon as the queued operations carry at least this
	// many keys. Default 8192.
	MaxBatch int
	// MaxWait bounds the latency trigger: an epoch is flushed once its
	// oldest operation has waited this long. Below the bound the
	// combiner adapts to observed concurrency — it keeps an epoch open
	// only while submissions are still arriving, so a lone client is
	// not delayed and n active clients coalesce into n-op epochs.
	// Default 200µs.
	MaxWait time.Duration
	// TraceDepth bounds the per-combiner ring of recent epoch traces
	// readable through Trace. 0 keeps a default-depth ring when
	// Options.Metrics is set and disables tracing otherwise; setting
	// it enables tracing even without a registry.
	TraceDepth int
}

func (o ConcurrentOptions) combineOptions() combine.Options {
	return combine.Options{
		MaxBatch:   o.MaxBatch,
		MaxWait:    o.MaxWait,
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

// NewConcurrent returns an empty one-shard frontend and starts its
// combiner goroutine.
func NewConcurrent[K Key, V any](opts ConcurrentOptions) *Concurrent[K, V] {
	return NewSharded[K, V](oneShard(opts))
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
// turning concurrent single-key writes into batches. Reads never
// enter a combiner and are not counted.
type ConcurrentStats struct {
	// Epochs is the number of combined batches executed.
	Epochs int64
	// Ops is the number of client writes and Flush fences served; Keys
	// the number of keys they carried (mini-batches carry several).
	Ops  int64
	Keys int64
	// SizeFlushes counts epochs flushed by the MaxBatch size trigger;
	// the rest were flushed by the latency trigger or by Close.
	SizeFlushes int64
	// MeanOps and MeanKeys are the mean combined batch size per epoch.
	MeanOps  float64
	MeanKeys float64
	// MeanWait is the mean time an operation spent queued before its
	// epoch began executing.
	MeanWait time.Duration
}
