// Command pbench regenerates the paper's evaluation (§9): the three
// Fig. 17 scaling curves, the sequential IST-versus-red-black-tree
// comparison, the concurrent-clients frontend experiment, and the
// ablations documented in DESIGN.md.
//
// Examples:
//
//	pbench -experiment fig17 -n 4000000 -m 1000000 -workers 1,2,4,8,16
//	pbench -experiment fig17 -dist zipf
//	pbench -experiment fig17 -dist clustered -clusters 128
//	pbench -experiment map -workers 1,4,8
//	pbench -experiment concurrent -clients 1,4,16,64
//	pbench -latency -rate 200 -json
//	pbench -experiment rebuildsched -rate 150 -json
//	pbench -experiment leafslack -rounds 6
//	pbench -experiment setalgebra -workers 8
//	pbench -experiment seqcmp -reps 5
//	pbench -experiment traverse
//	pbench -experiment rebuildc -rounds 6
//	pbench -experiment treap -workers 8
//	pbench -experiment all -csv
//	pbench -experiment all -json > BENCH_all.json
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
)

// experimentOrder lists every runnable experiment in the order
// -experiment all executes them. Unknown names are rejected against
// this table before any setup work happens.
var experimentOrder = []string{
	"fig17", "map", "concurrent", "readscale", "sharded", "latency", "rebuildsched", "setalgebra", "seqcmp", "traverse",
	"rebuildc", "leafslack", "treap", "leafcap", "indexfactor", "batchsize",
}

func main() {
	var (
		experiment = flag.String("experiment", "all",
			strings.Join(experimentOrder, " | ")+" | all")
		n          = flag.Int("n", 4_000_000, "target tree size (paper: 1e8)")
		m          = flag.Int("m", 1_000_000, "batch size (paper: 1e7)")
		seed       = flag.Uint64("seed", 0x5eed, "workload seed")
		workersCSV = flag.String("workers", "1,2,4,8,16", "worker counts for fig17 (comma separated); the last entry is the worker count of the single-point experiments (traverse, treap, sweeps)")
		clientsCSV = flag.String("clients", "1,4,16,64", "client-goroutine counts for the concurrent experiment (comma separated); the last entry is the client count of the sharded experiment")
		shardsCSV  = flag.String("shards", "1,2,4,8,16", "shard counts for the sharded experiment (comma separated)")
		batchKeys  = flag.Int("batchkeys", 64, "keys per client mini-batch in the sharded experiment")
		latency    = flag.Bool("latency", false, "shorthand for -experiment latency: open-loop latency percentiles for the concurrent and sharded frontends")
		rate       = flag.Float64("rate", 200, "offered load of the latency and rebuildsched experiments in thousand ops/s across all clients (must be positive)")
		reps       = flag.Int("reps", 3, "repetitions per measurement (paper: 10)")
		rounds     = flag.Int("rounds", 4, "churn rounds for the rebuildc and leafslack ablations")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut    = flag.Bool("json", false, "emit one machine-readable JSON array with every experiment's series")
		distName   = flag.String("dist", "",
			"batch distribution (empty = uniform, or clustered when -clusters is set):\n"+dist.Describe())
		clusters = flag.Int("clusters", 0,
			"cluster count when -dist clustered (0 = default "+strconv.Itoa(dist.DefaultClusters)+")")
	)
	flag.Parse()

	if *csv && *jsonOut {
		fatalUsage("-csv and -json are mutually exclusive")
	}
	if *latency {
		if *experiment != "all" && *experiment != "latency" {
			fatalUsage("-latency conflicts with -experiment " + *experiment)
		}
		*experiment = "latency"
	}
	names := []string{*experiment}
	if *experiment == "all" {
		names = experimentOrder
	} else if !slices.Contains(experimentOrder, *experiment) {
		fatalUsage(fmt.Sprintf("unknown experiment %q (have %s, or all)",
			*experiment, strings.Join(experimentOrder, ", ")))
	}

	// Flag validation up front, before any expensive setup. An
	// open-loop experiment with a non-positive rate schedules every
	// operation in the past and reports backlog, not latency; a
	// distribution flag an experiment ignores would silently measure
	// something other than what was asked.
	if (slices.Contains(names, "latency") || slices.Contains(names, "rebuildsched")) && *rate <= 0 {
		fatalUsage(fmt.Sprintf("the open-loop experiments (latency, rebuildsched) need a positive -rate in kops/s; got %g", *rate))
	}
	if *experiment == "latency" && *distName != "" {
		fatalUsage("-experiment latency runs its own uniform+zipf distribution grid and does not take -dist")
	}
	if *clusters > 0 && *distName != "" && *distName != "clustered" {
		fatalUsage(fmt.Sprintf("-clusters only applies to the clustered distribution, not -dist %s", *distName))
	}

	w := bench.Workload{N: *n, M: *m, Seed: *seed, Dist: *distName, Clusters: *clusters}.WithDefaults()
	if err := w.Validate(); err != nil {
		fatalUsage(err.Error())
	}
	workers, err := parseCounts(*workersCSV, "worker")
	if err != nil {
		fatalUsage(err.Error())
	}
	clients, err := parseCounts(*clientsCSV, "client")
	if err != nil {
		fatalUsage(err.Error())
	}
	shards, err := parseCounts(*shardsCSV, "shard")
	if err != nil {
		fatalUsage(err.Error())
	}

	run := func(name string) ([]string, [][]string) {
		switch name {
		case "fig17":
			return runFig17(w, workers, *reps)
		case "map":
			return runMap(w, workers, *reps)
		case "concurrent":
			return runConcurrent(w, clients, *reps)
		case "readscale":
			return runReadScale(w, clients, *reps)
		case "sharded":
			return runSharded(w, clients[len(clients)-1], shards, *batchKeys, *reps)
		case "latency":
			return runLatency(w, clients[len(clients)-1], shards[len(shards)-1], *rate, *reps)
		case "rebuildsched":
			return runRebuildSched(w, clients[len(clients)-1], *rate, *reps)
		case "setalgebra":
			return runSetAlgebra(w, workers[len(workers)-1], *reps)
		case "seqcmp":
			return runSeqCmp(w, *reps)
		case "traverse":
			return runTraverse(w, workers[len(workers)-1], *reps)
		case "rebuildc":
			return runRebuildC(w, workers[len(workers)-1], *rounds)
		case "leafslack":
			return runLeafSlack(w, workers[len(workers)-1], *rounds)
		case "treap":
			return runTreap(w, workers[len(workers)-1], *reps)
		case "leafcap":
			return runLeafCap(w, workers[len(workers)-1], *reps)
		case "indexfactor":
			return runIndexFactor(w, workers[len(workers)-1], *reps)
		case "batchsize":
			return runBatchSize(w, workers[len(workers)-1], *reps)
		default:
			panic("unreachable: experiment names are validated above")
		}
	}

	var series []bench.Series
	for _, name := range names {
		if !*jsonOut {
			fmt.Printf("== %s (n=%d m=%d seed=%#x dist=%s) ==\n", name, w.N, w.M, w.Seed, w.DistName())
		}
		header, cells := run(name)
		if *jsonOut {
			series = append(series, bench.NewSeries(name, w, header, cells))
			continue
		}
		emit := bench.WriteTable
		if *csv {
			emit = bench.WriteCSV
		}
		if err := emit(os.Stdout, header, cells); err != nil {
			fmt.Fprintln(os.Stderr, "pbench:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *jsonOut {
		if err := bench.WriteJSON(os.Stdout, series); err != nil {
			fmt.Fprintln(os.Stderr, "pbench:", err)
			os.Exit(1)
		}
	}
}

func fatalUsage(msg string) {
	fmt.Fprintln(os.Stderr, "pbench:", msg)
	os.Exit(2)
}

func runFig17(w bench.Workload, workers []int, reps int) ([]string, [][]string) {
	rows := bench.RunFig17(w, core.Config{}, workers, reps)
	header := []string{"workers", "contains_ms", "insert_ms", "remove_ms",
		"speedup_c", "speedup_i", "speedup_r",
		"insert_b_op", "insert_allocs_op", "remove_b_op", "remove_allocs_op"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(r.Workers),
			bench.MS(r.ContainsMS), bench.MS(r.InsertMS), bench.MS(r.RemoveMS),
			bench.X(r.SpeedupC), bench.X(r.SpeedupI), bench.X(r.SpeedupR),
			strconv.FormatUint(r.Insert.BytesOp, 10), strconv.FormatUint(r.Insert.AllocsOp, 10),
			strconv.FormatUint(r.Remove.BytesOp, 10), strconv.FormatUint(r.Remove.AllocsOp, 10),
		})
	}
	return header, cells
}

func runMap(w bench.Workload, workers []int, reps int) ([]string, [][]string) {
	rows := bench.RunMapWorkload(w, workers, reps)
	header := []string{"workers", "put_ms", "get_ms", "speedup_p", "speedup_g",
		"put_b_op", "put_allocs_op"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(r.Workers),
			bench.MS(r.PutMS), bench.MS(r.GetMS),
			bench.X(r.SpeedupP), bench.X(r.SpeedupG),
			strconv.FormatUint(r.Put.BytesOp, 10), strconv.FormatUint(r.Put.AllocsOp, 10),
		})
	}
	return header, cells
}

func runConcurrent(w bench.Workload, clients []int, reps int) ([]string, [][]string) {
	rows := bench.RunConcurrentWorkload(w, clients, reps)
	header := []string{"clients", "combine_mops", "rwmutex_map_mops", "sync_map_mops", "epoch_ops",
		"epoch_keys"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(r.Clients),
			fmt.Sprintf("%.3f", r.CombineMops),
			fmt.Sprintf("%.3f", r.RWMapMops),
			fmt.Sprintf("%.3f", r.SyncMapMops),
			fmt.Sprintf("%.1f", r.EpochOps),
			fmt.Sprintf("%.1f", r.EpochKeys),
		})
	}
	return header, cells
}

func runReadScale(w bench.Workload, clients []int, reps int) ([]string, [][]string) {
	rows := bench.RunReadScale(w, clients, reps)
	header := []string{"clients", "get_mops", "mixed_fast_mops", "mixed_epochs"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(r.Clients),
			fmt.Sprintf("%.3f", r.GetMops),
			fmt.Sprintf("%.3f", r.MixedMops),
			strconv.FormatInt(r.Epochs, 10),
		})
	}
	return header, cells
}

func runLatency(w bench.Workload, clients, shards int, rateKops float64, reps int) ([]string, [][]string) {
	rows := bench.RunLatencyWorkload(w, clients, shards, rateKops, reps)
	header := []string{"frontend", "dist", "clients", "offered_kops", "achieved_kops",
		"mean_us", "p50_us", "p90_us", "p99_us", "p999_us", "max_us"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			r.Frontend, r.Dist, strconv.Itoa(r.Clients),
			fmt.Sprintf("%.1f", r.OfferedKops),
			fmt.Sprintf("%.1f", r.AchievedKops),
			fmt.Sprintf("%.1f", r.MeanUS),
			fmt.Sprintf("%.1f", r.P50US),
			fmt.Sprintf("%.1f", r.P90US),
			fmt.Sprintf("%.1f", r.P99US),
			fmt.Sprintf("%.1f", r.P999US),
			fmt.Sprintf("%.1f", r.MaxUS),
		})
	}
	return header, cells
}

func runRebuildSched(w bench.Workload, clients int, rateKops float64, reps int) ([]string, [][]string) {
	r, err := bench.RunRebuildSched(w, clients, rateKops, reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbench:", err)
		os.Exit(1)
	}
	header := []string{"mode", "dist", "clients", "offered_kops", "achieved_kops",
		"mean_us", "p50_us", "p90_us", "p99_us", "p999_us", "max_us",
		"max_epoch_rebuild_keys"}
	return header, [][]string{{
		r.Mode, r.Dist, strconv.Itoa(r.Clients),
		fmt.Sprintf("%.1f", r.OfferedKops),
		fmt.Sprintf("%.1f", r.AchievedKops),
		fmt.Sprintf("%.1f", r.MeanUS),
		fmt.Sprintf("%.1f", r.P50US),
		fmt.Sprintf("%.1f", r.P90US),
		fmt.Sprintf("%.1f", r.P99US),
		fmt.Sprintf("%.1f", r.P999US),
		fmt.Sprintf("%.1f", r.MaxUS),
		strconv.Itoa(r.MaxEpochRebuildKeys),
	}}
}

func runLeafSlack(w bench.Workload, workers, rounds int) ([]string, [][]string) {
	rows := bench.RunLeafSlack(w, workers, rounds, nil, nil)
	header := []string{"slack", "C", "churn_ms", "leaf_grows", "chunk_builds", "dead_per_live", "final_height"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%.2f", r.Slack), strconv.Itoa(r.C), bench.MS(r.ChurnMS),
			strconv.FormatInt(r.LeafGrows, 10), strconv.FormatInt(r.ChunkBuilds, 10),
			fmt.Sprintf("%.2f", r.DeadRatio), strconv.Itoa(r.FinalHgt),
		})
	}
	return header, cells
}

func runSharded(w bench.Workload, clients int, shards []int, batchKeys, reps int) ([]string, [][]string) {
	rows := bench.RunShardedWorkload(w, clients, shards, batchKeys, reps)
	header := []string{"shards", "mkeys_s", "speedup", "epochs", "epoch_keys",
		"min_shard_keys", "max_shard_keys"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		shardCell := strconv.Itoa(r.Shards)
		if r.Shards == 0 {
			shardCell = "concurrent"
		}
		cells = append(cells, []string{
			shardCell,
			fmt.Sprintf("%.3f", r.Mops),
			bench.X(r.Speedup),
			strconv.FormatInt(r.Epochs, 10),
			fmt.Sprintf("%.1f", r.EpochKeys),
			strconv.FormatInt(r.MinShardKeys, 10),
			strconv.FormatInt(r.MaxShardKeys, 10),
		})
	}
	return header, cells
}

func runSetAlgebra(w bench.Workload, workers, reps int) ([]string, [][]string) {
	rows := bench.RunSetAlgebraWorkload(w, workers, reps)
	header := []string{"ratio", "b_keys", "union_ms", "intersect_ms", "diff_ms", "symdiff_ms",
		"slice_union_ms", "speedup_u", "union_b_op", "union_allocs_op"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			r.Ratio, strconv.Itoa(r.BKeys),
			bench.MS(r.UnionMS), bench.MS(r.InterMS), bench.MS(r.DiffMS), bench.MS(r.SymMS),
			bench.MS(r.SliceMS), bench.X(r.SpeedupU),
			strconv.FormatUint(r.Union.BytesOp, 10), strconv.FormatUint(r.Union.AllocsOp, 10),
		})
	}
	return header, cells
}

func runSeqCmp(w bench.Workload, reps int) ([]string, [][]string) {
	r := bench.RunSeqCompare(w, core.Config{}, reps)
	header := []string{"structure", "contains_ms", "vs_rbtree"}
	cells := [][]string{
		{"pb-ist (1 worker, batched)", bench.MS(r.ISTBatchedMS), bench.X(r.SpeedupVsRB)},
		{"ist (scalar)", bench.MS(r.ISTScalarMS), bench.X(r.SpeedupScalar)},
		{"red-black tree", bench.MS(r.RBTreeMS), bench.X(1)},
		{"skip list", bench.MS(r.SkipListMS), bench.X(safeDiv(r.RBTreeMS, r.SkipListMS))},
	}
	return header, cells
}

func runTraverse(w bench.Workload, workers, reps int) ([]string, [][]string) {
	rows := bench.RunAblationTraverse(w, workers, reps)
	header := []string{"distribution", "interpolation_ms", "rank_ms"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{r.Distribution, bench.MS(r.InterpolationMS), bench.MS(r.RankMS)})
	}
	return header, cells
}

func runRebuildC(w bench.Workload, workers, rounds int) ([]string, [][]string) {
	rows := bench.RunAblationRebuildC(w, workers, rounds, []int{1, 2, 4, 8})
	header := []string{"C", "churn_ms", "final_height", "dead_per_live"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(r.C), bench.MS(r.ChurnMS),
			strconv.Itoa(r.FinalHgt), fmt.Sprintf("%.2f", r.DeadRatio),
		})
	}
	return header, cells
}

func runTreap(w bench.Workload, workers, reps int) ([]string, [][]string) {
	rows := bench.RunBaselineTreap(w, workers, reps)
	header := []string{"operation", "pb-ist_ms", "treap_ms"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{r.Op, bench.MS(r.ISTMS), bench.MS(r.TreapMS)})
	}
	return header, cells
}

func runLeafCap(w bench.Workload, workers, reps int) ([]string, [][]string) {
	rows := bench.RunSweepLeafCap(w, workers, reps, []int{8, 16, 32, 64, 128})
	header := []string{"H", "contains_ms", "update_ms", "height", "leaves"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(r.H), bench.MS(r.ContainsMS), bench.MS(r.UpdateMS),
			strconv.Itoa(r.Height), strconv.Itoa(r.Leaves),
		})
	}
	return header, cells
}

func runIndexFactor(w bench.Workload, workers, reps int) ([]string, [][]string) {
	rows := bench.RunSweepIndexFactor(w, workers, reps, []float64{0.25, 0.5, 1, 2, 4})
	header := []string{"factor", "contains_ms", "index_mb"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%.2f", r.Factor), bench.MS(r.ContainsMS),
			fmt.Sprintf("%.1f", float64(r.IndexBytes)/(1<<20)),
		})
	}
	return header, cells
}

func runBatchSize(w bench.Workload, workers, reps int) ([]string, [][]string) {
	rows := bench.RunSweepBatchSize(w, workers, reps,
		[]int{1000, 10_000, 100_000, 1_000_000})
	header := []string{"m", "contains_ms", "ns_per_key"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(r.M), bench.MS(r.ContainsMS),
			fmt.Sprintf("%.0f", r.NSPerKey),
		})
	}
	return header, cells
}

func parseCounts(csv, what string) ([]int, error) {
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad %s count %q", what, p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s counts given", what)
	}
	return out, nil
}

func safeDiv(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
