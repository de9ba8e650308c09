package bench

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// tiny returns a workload small enough for unit tests.
func tiny() Workload {
	return Workload{N: 20000, M: 4000, Seed: 99}
}

func TestWorkloadDefaults(t *testing.T) {
	w := Workload{}.WithDefaults()
	if w.N != 4_000_000 || w.M != 1_000_000 || w.Seed == 0 {
		t.Fatalf("unexpected defaults: %+v", w)
	}
	lo, hi := w.Range()
	if lo != -int64(w.N) || hi != int64(w.N) {
		t.Fatalf("range [%d,%d] not derived from N", lo, hi)
	}
}

func TestWorkloadGeneratorsDeterministic(t *testing.T) {
	w := tiny()
	if !slices.Equal(w.BaseKeys(), w.BaseKeys()) {
		t.Fatal("BaseKeys not deterministic")
	}
	if !slices.Equal(w.Batch(3), w.Batch(3)) {
		t.Fatal("Batch not deterministic")
	}
	if slices.Equal(w.Batch(1), w.Batch(2)) {
		t.Fatal("distinct batch indexes must differ")
	}
}

func TestWorkloadBaseKeysDensity(t *testing.T) {
	w := tiny()
	base := w.BaseKeys()
	// p = 1/2 over 2N+1 integers: expect ≈ N keys.
	if len(base) < w.N*9/10 || len(base) > w.N*11/10 {
		t.Fatalf("base has %d keys, want ≈%d", len(base), w.N)
	}
	if !slices.IsSorted(base) {
		t.Fatal("base keys not sorted")
	}
}

func TestWorkloadClusteredBatch(t *testing.T) {
	w := tiny()
	w.Clusters = 8
	b := w.Batch(0)
	if len(b) != w.M || !slices.IsSorted(b) {
		t.Fatal("clustered batch malformed")
	}
	if w.DistName() != "clustered" {
		t.Fatalf("Clusters > 0 must select clustered, got %q", w.DistName())
	}
}

func TestWorkloadDistSelector(t *testing.T) {
	lo, hi := tiny().Range()
	for _, name := range []string{"uniform", "clustered", "zipf", "runs", "expspaced"} {
		w := tiny()
		w.Dist = name
		if err := w.Validate(); err != nil {
			t.Fatalf("Validate(%s): %v", name, err)
		}
		b := w.Batch(0)
		if len(b) != w.M || !slices.IsSorted(b) {
			t.Fatalf("dist %s: batch has %d keys (want %d), sorted=%v",
				name, len(b), w.M, slices.IsSorted(b))
		}
		if b[0] < lo || b[len(b)-1] > hi {
			t.Fatalf("dist %s: batch outside [%d,%d]", name, lo, hi)
		}
	}
	w := tiny()
	w.Dist = "bogus"
	if err := w.Validate(); err == nil {
		t.Fatal("unknown distribution must fail Validate")
	}
	// halfdense is density-driven and cannot honor the exactly-M
	// batch contract, so it must be rejected as a batch distribution.
	w.Dist = "halfdense"
	if err := w.Validate(); err == nil {
		t.Fatal("halfdense must fail Validate")
	}
	// A batch larger than the key range cannot hold M distinct keys.
	w = Workload{N: 100, M: 1000, Seed: 1}
	if err := w.Validate(); err == nil {
		t.Fatal("m > range size must fail Validate")
	}
}

func TestWorkloadDistsDiffer(t *testing.T) {
	uni, zipf, exp := tiny(), tiny(), tiny()
	zipf.Dist = "zipf"
	exp.Dist = "expspaced"
	if slices.Equal(uni.Batch(0), zipf.Batch(0)) || slices.Equal(uni.Batch(0), exp.Batch(0)) {
		t.Fatal("distribution selector has no effect on batches")
	}
}

func TestRunFig17Shape(t *testing.T) {
	rows := RunFig17(tiny(), core.Config{}, []int{1, 2}, 1)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].Workers != 1 || rows[1].Workers != 2 {
		t.Fatal("worker column wrong")
	}
	for _, r := range rows {
		if r.ContainsMS <= 0 || r.InsertMS <= 0 || r.RemoveMS <= 0 {
			t.Fatalf("non-positive timing in %+v", r)
		}
	}
	if rows[0].SpeedupC != 1 || rows[0].SpeedupI != 1 || rows[0].SpeedupR != 1 {
		t.Fatal("baseline speedup must be 1")
	}
	if rows[1].SpeedupC <= 0 {
		t.Fatal("speedup not computed")
	}
}

func TestRunSeqCompareShape(t *testing.T) {
	res := RunSeqCompare(tiny(), core.Config{}, 1)
	if res.ISTBatchedMS <= 0 || res.ISTScalarMS <= 0 || res.RBTreeMS <= 0 || res.SkipListMS <= 0 {
		t.Fatalf("non-positive timing: %+v", res)
	}
	if res.SpeedupVsRB <= 0 || res.SpeedupScalar <= 0 {
		t.Fatal("speedups not computed")
	}
	if res.M != 4000 {
		t.Fatalf("M = %d, want 4000", res.M)
	}
}

func TestRunAblationTraverseShape(t *testing.T) {
	rows := RunAblationTraverse(tiny(), 2, 1)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	names := make([]string, 0, len(rows))
	for _, r := range rows {
		names = append(names, r.Distribution)
	}
	for _, want := range []string{"uniform", "clustered", "zipf", "expspaced"} {
		if !slices.Contains(names, want) {
			t.Fatalf("distributions = %v, missing %q", names, want)
		}
	}
	for _, r := range rows {
		if r.InterpolationMS <= 0 || r.RankMS <= 0 {
			t.Fatalf("non-positive timing in %+v", r)
		}
	}
}

func TestRunAblationRebuildCShape(t *testing.T) {
	rows := RunAblationRebuildC(tiny(), 2, 2, []int{1, 4})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.ChurnMS <= 0 || r.FinalHgt <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	if rows[0].C != 1 || rows[1].C != 4 {
		t.Fatal("C column wrong")
	}
}

func TestRunMapWorkloadShape(t *testing.T) {
	rows := RunMapWorkload(tiny(), []int{1, 2}, 1)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].Workers != 1 || rows[1].Workers != 2 {
		t.Fatal("worker column wrong")
	}
	for _, r := range rows {
		if r.PutMS <= 0 || r.GetMS <= 0 {
			t.Fatalf("non-positive timing in %+v", r)
		}
	}
	if rows[0].SpeedupP != 1 || rows[0].SpeedupG != 1 {
		t.Fatal("baseline speedup must be 1")
	}
}

func TestMapPayloadsDerivedFromKeys(t *testing.T) {
	keys := []int64{-3, 0, 7}
	vals := MapPayloads(keys)
	for i, k := range keys {
		if vals[i] != MapPayload(k) {
			t.Fatalf("payload %d not derived from key %d", i, k)
		}
	}
	if MapPayload(1) == MapPayload(2) {
		t.Fatal("payloads must distinguish keys")
	}
}

func TestRunSetAlgebraWorkloadShape(t *testing.T) {
	rows := RunSetAlgebraWorkload(tiny(), 2, 1)
	if len(rows) != len(SetAlgebraRatios) {
		t.Fatalf("got %d rows, want %d", len(rows), len(SetAlgebraRatios))
	}
	for i, r := range rows {
		if r.Ratio == "" || r.BKeys < 1 {
			t.Fatalf("row %d: bad operand column %+v", i, r)
		}
		if r.UnionMS <= 0 || r.InterMS <= 0 || r.DiffMS <= 0 || r.SymMS <= 0 || r.SliceMS <= 0 {
			t.Fatalf("row %d: non-positive timing %+v", i, r)
		}
	}
	// Operand size must shrink with the ratio.
	for i := 1; i < len(rows); i++ {
		if rows[i].BKeys >= rows[i-1].BKeys {
			t.Fatalf("|B| did not shrink: %d then %d", rows[i-1].BKeys, rows[i].BKeys)
		}
	}
}

func TestSliceUnionBaseline(t *testing.T) {
	got := sliceUnionBaseline([]int64{1, 3, 5}, []int64{2, 3, 6})
	if want := []int64{1, 2, 3, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("sliceUnionBaseline = %v, want %v", got, want)
	}
}

func TestRunBaselineTreapShape(t *testing.T) {
	rows := RunBaselineTreap(tiny(), 2, 1)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.ISTMS <= 0 || r.TreapMS <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestRunConcurrentWorkloadShape(t *testing.T) {
	rows := RunConcurrentWorkload(tiny(), []int{1, 2}, 1)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].Clients != 1 || rows[1].Clients != 2 {
		t.Fatal("clients column wrong")
	}
	for _, r := range rows {
		if r.CombineMops <= 0 || r.RWMapMops <= 0 || r.SyncMapMops <= 0 {
			t.Fatalf("non-positive throughput in %+v", r)
		}
		if r.EpochOps <= 0 {
			t.Fatalf("epoch size not measured in %+v", r)
		}
	}
}

// TestRunRebuildSchedShape runs the rebuild experiment closed-loop at
// a tiny scale: one eager row, every epoch's trace read
// (RunRebuildSched fails otherwise), and a base small enough against
// the churn that some epoch's inline rebuild shows in
// max_epoch_rebuild_keys.
func TestRunRebuildSchedShape(t *testing.T) {
	w := tiny()
	w.N = 2000
	r, err := RunRebuildSched(w, 4, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != "eager" || r.Clients != 4 {
		t.Fatalf("got row %+v, want an eager row of 4 clients", r)
	}
	if r.MaxEpochRebuildKeys <= 0 {
		t.Fatalf("no epoch reports a rebuild: %+v", r)
	}
	if r.AchievedKops <= 0 || r.P50US > r.P999US {
		t.Fatalf("implausible latency row %+v", r)
	}
}

func TestConcurrentScriptsDeterministicAndFair(t *testing.T) {
	w := tiny()
	a := concurrentScripts(w, 0, 4)
	b := concurrentScripts(w, 0, 4)
	if len(a) != 4 {
		t.Fatalf("got %d client scripts, want 4", len(a))
	}
	total, reads := 0, 0
	for c := range a {
		if len(a[c]) != len(b[c]) {
			t.Fatal("scripts not deterministic")
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				t.Fatal("scripts not deterministic")
			}
			total++
			if a[c][i].kind == scGet {
				reads++
			}
		}
	}
	if total != w.M {
		t.Fatalf("scripts carry %d ops, want M=%d", total, w.M)
	}
	// The mix is 90% reads; allow generous slack for RNG noise.
	if frac := float64(reads) / float64(total); frac < 0.85 || frac > 0.95 {
		t.Fatalf("read fraction %.3f, want ≈0.9", frac)
	}
	// No ops may be dropped when M is not divisible by the client
	// count: the remainder is dealt out one extra op per client.
	for _, clients := range []int{3, 7, 64} {
		total := 0
		for _, sc := range concurrentScripts(w, 1, clients) {
			total += len(sc)
		}
		if total != w.M {
			t.Fatalf("%d clients: scripts carry %d ops, want M=%d", clients, total, w.M)
		}
	}
}

func TestWriteTable(t *testing.T) {
	var buf bytes.Buffer
	err := WriteTable(&buf, []string{"a", "long-header"}, [][]string{
		{"1", "2"},
		{"333", "4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a ") || !strings.Contains(lines[0], "long-header") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("rule wrong: %q", lines[1])
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []string{"x", "y"}, [][]string{{"1", "2"}}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "x,y\n1,2\n" {
		t.Fatalf("csv = %q", buf.String())
	}
}

func TestSeriesJSON(t *testing.T) {
	s := NewSeries("fig17", tiny(), []string{"workers", "t_ms", "speedup"},
		[][]string{{"2", "12.5", "1.80x"}, {"4", "note", "2.40x"}})
	if s.Experiment != "fig17" || s.Workload["n"] != 20000 {
		t.Fatalf("series header wrong: %+v", s)
	}
	if v, ok := s.Rows[0]["workers"].(int64); !ok || v != 2 {
		t.Fatalf("integer cell not parsed: %#v", s.Rows[0]["workers"])
	}
	if v, ok := s.Rows[0]["t_ms"].(float64); !ok || v != 12.5 {
		t.Fatalf("float cell not parsed: %#v", s.Rows[0]["t_ms"])
	}
	if v, ok := s.Rows[0]["speedup"].(float64); !ok || v != 1.8 {
		t.Fatalf("speedup cell not parsed: %#v", s.Rows[0]["speedup"])
	}
	if v, ok := s.Rows[1]["t_ms"].(string); !ok || v != "note" {
		t.Fatalf("non-numeric cell mangled: %#v", s.Rows[1]["t_ms"])
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, []Series{s}); err != nil {
		t.Fatal(err)
	}
	var back []Series
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("WriteJSON emitted invalid JSON: %v", err)
	}
	if len(back) != 1 || back[0].Experiment != "fig17" || len(back[0].Rows) != 2 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

func TestFormatters(t *testing.T) {
	if MS(250.3) != "250" || MS(12.34) != "12.3" || MS(0.5678) != "0.568" {
		t.Fatalf("MS formatting wrong: %s %s %s", MS(250.3), MS(12.34), MS(0.5678))
	}
	if X(2.5) != "2.50x" {
		t.Fatalf("X formatting wrong: %s", X(2.5))
	}
}
