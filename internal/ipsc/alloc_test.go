// Allocation-regression tests for the Reset-reuse simulation path.
// Excluded under the race detector: its instrumentation changes
// allocation counts.
//
//go:build !race

package ipsc

import (
	"math/rand"
	"runtime"
	"testing"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/sched"
	"unsched/internal/topo"
)

// TestReusedRunAllocs pins the Reset-reuse contract for S1: after one
// run, rerunning the same RSNL schedule on a warmed 64-node machine
// allocates nothing. The flat-event engine, the arena-recycled
// op/attempt/slot state and the machine-owned compile scratch (the
// per-phase receive side and message slots) replay into the storage
// the first run grew.
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
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Errorf("reused RunS1: %.1f allocs/run, want 0", got)
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

// TestNewMachineFootprint bounds what building a machine allocates at
// the service's node cap: the 4096-node torus over a lazy route table,
// as the service builds it per request. Machine state is O(n +
// channels + messages) and the messages arrive only with a run, so
// the build is a few hundred KiB; a per-node-pair array at this size
// costs 16 MiB per byte of element.
func TestNewMachineFootprint(t *testing.T) {
	const bound = 4 << 20
	table := topo.NewRouteTableLazy(mesh.MustNew(64, 64, true))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := NewMachine(table, costmodel.DefaultIPSC860()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("NewMachine(torus:64x64) allocated %.1f MiB, bound %d MiB", float64(got)/(1<<20), bound>>20)
	} else {
		t.Logf("NewMachine(torus:64x64) allocated %.2f MiB", float64(got)/(1<<20))
	}
}

// TestCompileS1SizesPrograms checks that S1 compilation sizes every
// node's program for its ops before appending: compiling allocates the
// program header, the two per-phase scratch slices and one program per
// node, and no program is regrown.
func TestCompileS1SizesPrograms(t *testing.T) {
	cube := hypercube.MustNew(6)
	mat, err := comm.DRegular(64, 16, 4096, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.RSNL(mat, cube, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	params := costmodel.DefaultIPSC860()
	for name, compile := range map[string]func(*sched.Schedule, costmodel.Params) [][]op{
		"CompileS1": CompileS1, "CompileS1Barrier": CompileS1Barrier,
	} {
		got := testing.AllocsPerRun(5, func() { compile(s, params) })
		if want := float64(3 + s.N); got != want {
			t.Errorf("%s: %.1f allocs, want %.0f", name, got, want)
		}
	}
}
