// Indexlab: a side-by-side comparison of the search kernels an
// interpolation search tree runs (§3.2) against plain binary search,
// on a smooth array, a clustered array, and an adversarial
// exponentially spaced array built to defeat interpolation (its keys
// are maximally far from linear). Find is an inner node's search: the
// ID-array estimate refined by the linear walk of Fig. 5. SearchLeaf
// is a leaf's: one interpolated probe refined by the same walk, here
// without separators (±Inf), as for a root leaf. Every kernel's answer
// to every probe is checked against slices.BinarySearch before it is
// timed; a mismatch exits with status 1.
//
//	go run ./examples/indexlab
package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/dist"
	"repro/internal/iindex"
	"repro/internal/parallel"
)

const (
	arraySize = 1 << 20
	numProbes = 1 << 20
)

type kernel struct {
	name string
	fn   func(int64) (int, bool)
}

func main() {
	r := dist.NewRNG(1234)
	for _, data := range []struct {
		name string
		rep  []int64
	}{
		{"uniform (smooth)", dist.UniformSet(r, arraySize, 0, 1<<40)},
		{"clustered (non-smooth)", dist.Clustered(r, arraySize, 256, 0, 1<<40)},
		{"expspaced (adversarial)", dist.ExpSpaced(r, arraySize, 0, 1<<40)},
	} {
		rep := data.rep
		ix := iindex.Build(rep, 0)
		probes := mixedProbes(r, rep)
		fmt.Printf("\n%s, %d keys, %d probes (half hits)\n", data.name, len(rep), len(probes))
		for _, k := range []kernel{
			{"Find (ID index + walk)", func(x int64) (int, bool) { return iindex.Find(rep, &ix, x) }},
			{"SearchLeaf (probe + walk)", func(x int64) (int, bool) { return iindex.SearchLeaf(rep, math.Inf(-1), math.Inf(1), x) }},
			{"binary search", func(x int64) (int, bool) {
				pos := parallel.LowerBound(rep, x)
				return pos, pos < len(rep) && rep[pos] == x
			}},
		} {
			if err := check(rep, probes, k.fn); err != nil {
				fmt.Fprintf(os.Stderr, "indexlab: %s on %s: %v\n", k.name, data.name, err)
				os.Exit(1)
			}
			fmt.Printf("  %-25s %7.1f ns/probe\n", k.name, measure(probes, k.fn))
		}
	}
}

// mixedProbes returns numProbes keys in random order: half drawn
// uniformly from the key range (almost all misses), half from rep.
func mixedProbes(r *dist.RNG, rep []int64) []int64 {
	probes := dist.UniformSet(r, numProbes/2, 0, 1<<40)
	for range numProbes / 2 {
		probes = append(probes, rep[r.Int63n(int64(len(rep)))])
	}
	for i := len(probes) - 1; i > 0; i-- {
		j := r.Int63n(int64(i + 1))
		probes[i], probes[j] = probes[j], probes[i]
	}
	return probes
}

// check compares fn's (lower-bound position, found) answer for every
// probe with slices.BinarySearch's.
func check(rep, probes []int64, fn func(int64) (int, bool)) error {
	for _, x := range probes {
		pos, found := fn(x)
		if wantPos, wantFound := slices.BinarySearch(rep, x); pos != wantPos || found != wantFound {
			return fmt.Errorf("probe %d = (%d, %v), binary search (%d, %v)", x, pos, found, wantPos, wantFound)
		}
	}
	return nil
}

// measure returns fn's mean time per probe over all probes.
func measure(probes []int64, fn func(int64) (int, bool)) float64 {
	start := time.Now()
	for _, x := range probes {
		fn(x)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(probes))
}
