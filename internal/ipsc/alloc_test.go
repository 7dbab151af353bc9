// Allocation-regression tests for the Reset-reuse simulation path.
// Excluded under the race detector: its instrumentation changes
// allocation counts.
//
//go:build !race

package ipsc

import (
	"math/rand"
	"testing"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/sched"
	"unsched/internal/topo"
)

// allocBudgetReusedRun bounds one RunS1 on a warmed 64-node machine.
// The flat-event engine and the arena-recycled op/attempt state make
// the event loop itself allocation-free; what remains is the per-run
// program header slice plus a handful of escaping result values —
// measured 22 allocs/run. The budget leaves ~2x headroom; a closure
// or per-message allocation reappearing in the hot path costs
// thousands and fails unmistakably.
const allocBudgetReusedRun = 60

func TestReusedRunAllocs(t *testing.T) {
	cube := hypercube.MustNew(6)
	table := topo.NewRouteTable(cube)
	params := costmodel.DefaultIPSC860()
	mat, err := comm.DRegular(64, 16, 4096, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.RSNL(mat, cube, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	mach, err := NewMachine(table, params)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := mach.RunS1(s); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arenas
	if got := testing.AllocsPerRun(20, run); got > allocBudgetReusedRun {
		t.Errorf("reused RunS1: %.1f allocs/run, budget %d", got, allocBudgetReusedRun)
	}
}

// TestReusedRunAllocsSteadyState pins the Reset-reuse contract on a
// contended run: after one run, rerunning the same S2 simulation on a
// 1024-node torus allocates nothing — the attempt arena, watch
// lists, woken set, program arena and event buckets all replay into
// the storage the first run grew.
func TestReusedRunAllocsSteadyState(t *testing.T) {
	table := topo.NewRouteTable(mesh.MustNew(32, 32, true))
	mat, err := comm.DRegular(1024, 8, 4096, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewCoreForTable(table).RSN(mat, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	mach, err := NewMachine(table, costmodel.DefaultIPSC860())
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := mach.RunS2(s); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun's own warm-up is the first run, so the measured runs
	// start with the second: the first one to replay into warm storage.
	if got := testing.AllocsPerRun(3, run); got != 0 {
		t.Errorf("reused RunS2: %.1f allocs/run, want 0", got)
	}
}
