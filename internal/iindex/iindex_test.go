package iindex

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refLowerBound is the specification Find is tested against.
func refLowerBound(rep []int64, x int64) (int, bool) {
	pos, found := slices.BinarySearch(rep, x)
	return pos, found
}

func sortedUniqueInt64(seed int64, n int, span int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	set := make(map[int64]struct{}, n)
	for len(set) < n {
		set[r.Int63n(span)] = struct{}{}
	}
	out := make([]int64, 0, n)
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func TestBuildDegenerateCases(t *testing.T) {
	if ix := Build([]int64{}, 0); ix.Buckets() != 0 {
		t.Error("empty rep should build a degenerate index")
	}
	if ix := Build([]int64{5}, 0); ix.Buckets() != 0 {
		t.Error("single-element rep should build a degenerate index")
	}
	if ix := Build([]float64{1.5, 1.5}, 0); ix.Buckets() != 0 {
		t.Error("zero value range should build a degenerate index")
	}
	nan := math.NaN()
	if ix := Build([]float64{nan, nan}, 0); ix.Buckets() != 0 {
		t.Error("NaN range should build a degenerate index")
	}
}

func TestFindOnEveryElement(t *testing.T) {
	rep := sortedUniqueInt64(1, 3000, 1<<40)
	ix := Build(rep, 0)
	for i, x := range rep {
		pos, found := Find(rep, &ix, x)
		if !found || pos != i {
			t.Fatalf("Find(rep, %d) = (%d,%v), want (%d,true)", x, pos, found, i)
		}
	}
}

func TestFindOnAbsentKeys(t *testing.T) {
	rep := sortedUniqueInt64(2, 2000, 1<<30)
	ix := Build(rep, 0)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		x := r.Int63n(1 << 31)
		gotPos, gotFound := Find(rep, &ix, x)
		wantPos, wantFound := refLowerBound(rep, x)
		if gotPos != wantPos || gotFound != wantFound {
			t.Fatalf("Find(%d) = (%d,%v), want (%d,%v)", x, gotPos, gotFound, wantPos, wantFound)
		}
	}
}

func TestFindExtremes(t *testing.T) {
	rep := []int64{10, 20, 30, 40, 50}
	ix := Build(rep, 0)
	cases := []struct {
		x     int64
		pos   int
		found bool
	}{
		{5, 0, false}, {10, 0, true}, {15, 1, false}, {50, 4, true},
		{55, 5, false}, {30, 2, true}, {31, 3, false},
	}
	for _, c := range cases {
		pos, found := Find(rep, &ix, c.x)
		if pos != c.pos || found != c.found {
			t.Errorf("Find(%d) = (%d,%v), want (%d,%v)", c.x, pos, found, c.pos, c.found)
		}
	}
}

func TestFindEmptyAndDegenerateIndex(t *testing.T) {
	var ix Index
	if pos, found := Find([]int64{}, &ix, 7); pos != 0 || found {
		t.Fatal("Find on empty rep must be (0,false)")
	}
	// A degenerate index must still produce correct results via walking
	// and the binary fallback.
	rep := sortedUniqueInt64(4, 500, 1<<20)
	for _, x := range rep {
		pos, found := Find(rep, &ix, x)
		wantPos, _ := refLowerBound(rep, x)
		if !found || pos != wantPos {
			t.Fatalf("degenerate-index Find(%d) = (%d,%v)", x, pos, found)
		}
	}
}

func TestFindClusteredAdversarialInput(t *testing.T) {
	// Highly non-smooth input: two dense clusters at the range ends.
	// Interpolation estimates are badly wrong; the capped walk plus
	// binary fallback must still give exact answers.
	var rep []int64
	for i := int64(0); i < 3000; i++ {
		rep = append(rep, i)
	}
	for i := int64(0); i < 3000; i++ {
		rep = append(rep, 1<<40+i)
	}
	ix := Build(rep, 0)
	r := rand.New(rand.NewSource(5))
	probes := []int64{0, 2999, 3000, 1 << 39, 1<<40 - 1, 1 << 40, 1<<40 + 2999, 1<<40 + 3000}
	for i := 0; i < 3000; i++ {
		probes = append(probes, r.Int63n(1<<41))
	}
	for _, x := range probes {
		gotPos, gotFound := Find(rep, &ix, x)
		wantPos, wantFound := refLowerBound(rep, x)
		if gotPos != wantPos || gotFound != wantFound {
			t.Fatalf("clustered Find(%d) = (%d,%v), want (%d,%v)", x, gotPos, gotFound, wantPos, wantFound)
		}
	}
}

func TestApproxErrorSmallOnUniformInput(t *testing.T) {
	// On uniform (smooth) input the estimate must land within a few
	// positions of the truth for the vast majority of probes — this is
	// the property that makes IST search O(log log n).
	rep := sortedUniqueInt64(6, 100000, 1<<40)
	ix := Build(rep, 0)
	r := rand.New(rand.NewSource(7))
	within := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		x := r.Int63n(1 << 40)
		h := ix.Approx(float64(x))
		want, _ := refLowerBound(rep, x)
		if d := h - want; d >= -maxWalk && d <= maxWalk {
			within++
		}
	}
	if frac := float64(within) / trials; frac < 0.99 {
		t.Fatalf("only %.3f of estimates within %d positions; index quality too low", frac, maxWalk)
	}
}

func TestIndexSizeFactor(t *testing.T) {
	rep := sortedUniqueInt64(8, 1000, 1<<30)
	small := Build(rep, 0.5)
	big := Build(rep, 2.0)
	if small.Buckets() >= big.Buckets() {
		t.Fatalf("size factor not respected: %d vs %d buckets", small.Buckets(), big.Buckets())
	}
	if got, want := big.Buckets(), 2000; got != want {
		t.Fatalf("big index has %d buckets, want %d", got, want)
	}
	if big.Bytes() != 4*(big.Buckets()+1) {
		t.Fatalf("Bytes() inconsistent with bucket count")
	}
}

func TestFindFloatKeys(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	set := map[float64]struct{}{}
	for len(set) < 2000 {
		set[r.NormFloat64()*1000] = struct{}{}
	}
	rep := make([]float64, 0, len(set))
	for k := range set {
		rep = append(rep, k)
	}
	slices.Sort(rep)
	ix := Build(rep, 0)
	for i, x := range rep {
		pos, found := Find(rep, &ix, x)
		if !found || pos != i {
			t.Fatalf("float Find(%v) = (%d,%v), want (%d,true)", x, pos, found, i)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		x := r.NormFloat64() * 1000
		gotPos, gotFound := Find(rep, &ix, x)
		wantPos, wantFound := slices.BinarySearch(rep, x)
		if gotPos != wantPos || gotFound != wantFound {
			t.Fatalf("float Find(%v) mismatch", x)
		}
	}
	// Non-finite probes: +Inf once indexed a negative bucket.
	for _, c := range []struct {
		x   float64
		pos int
	}{{math.Inf(-1), 0}, {math.Inf(1), len(rep)}, {math.NaN(), 0}} {
		if pos, found := Find(rep, &ix, c.x); pos != c.pos || found {
			t.Errorf("float Find(%v) = (%d,%v), want (%d,false)", c.x, pos, found, c.pos)
		}
	}
}

func TestFindQuickProperty(t *testing.T) {
	prop := func(raw []int32, probes []int32) bool {
		rep64 := make([]int64, 0, len(raw))
		for _, v := range raw {
			rep64 = append(rep64, int64(v))
		}
		slices.Sort(rep64)
		rep64 = slices.Compact(rep64)
		ix := Build(rep64, 0)
		for _, p := range probes {
			x := int64(p)
			gotPos, gotFound := Find(rep64, &ix, x)
			wantPos, wantFound := refLowerBound(rep64, x)
			if gotPos != wantPos || gotFound != wantFound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
