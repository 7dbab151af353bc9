// Allocation-regression test for the matrix-reuse path campaign
// workers run on: regenerating a workload into a per-worker matrix
// must not silently grow back toward the O(n^2) fresh-build cost.
// Excluded under the race detector: its instrumentation changes
// allocation counts.
//
//go:build !race

package workload

import (
	"math/rand"
	"runtime"
	"testing"

	"unsched/internal/comm"
)

// Budgets for BuildInto on a warm 64-node matrix. The dominant cost of
// the fresh path — the n^2 matrix itself — is gone; what remains is
// the generator's own scratch (a permutation slice and shuffle
// closures for uniform, the d-slot displacement map for scatter). A
// reintroduced per-cell matrix allocation blows past either budget.
const (
	allocBudgetUniformInto = 12
	allocBudgetScatterInto = 12
)

func TestBuildIntoAllocs(t *testing.T) {
	cases := []struct {
		spec   string
		budget float64
	}{
		{"uniform:16:1024", allocBudgetUniformInto},
		{"scatter:16:1024", allocBudgetScatterInto},
	}
	for _, c := range cases {
		sp := MustParseSpec(c.spec)
		m := comm.MustNew(64)
		rng := rand.New(rand.NewSource(9))
		build := func() {
			if err := sp.BuildInto(m, rng); err != nil {
				t.Fatal(err)
			}
		}
		build() // warm
		if got := testing.AllocsPerRun(20, build); got > c.budget {
			t.Errorf("%s: BuildInto on a reused matrix: %.1f allocs/run, budget %.0f", c.spec, got, c.budget)
		}
	}
}

// TestBuildKeepsNoScratch checks that a one-shot Build returns a matrix
// holding only its messages. An XxxInto generator leaves its scratch
// in the matrix for the next regeneration: a placed-entry bitset of n^2
// bits (2 MiB at 4096 nodes) for the uniform-size samplers, queued
// triples for SpMV. A Build matrix that kept it would pin that memory
// for as long as a service job or a library caller holds the matrix.
func TestBuildKeepsNoScratch(t *testing.T) {
	const n = 4096
	for _, spec := range []string{"uniform:8:4096", "scatter:8:4096", "hotspot:8:4096:4", "spmv:8:8"} {
		sp := MustParseSpec(spec)
		rng := rand.New(rand.NewSource(3))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m, err := sp.Build(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		// Twice the offsets, columns and sizes the matrix needs, plus
		// slack for the runtime's own objects.
		budget := int64(2*(8*(n+1)+12*m.MessageCount()) + 256<<10)
		if retained > budget {
			t.Errorf("%s: Build matrix with %d messages retains %d bytes, budget %d", spec, m.MessageCount(), retained, budget)
		}
		runtime.KeepAlive(m)
	}
}
