// Allocation-regression test for the steady-state schedule→simulate
// round trip — the configuration every campaign worker and unschedd
// worker runs in: one reusable SchedCore and one reusable SimMachine
// per goroutine. Excluded under the race detector: its
// instrumentation changes allocation counts.
//
//go:build !race

package unsched

import (
	"math/rand"
	"testing"
)

// allocBudgetRoundTrip pins one RSNL schedule plus one S1 simulation
// on reused core+machine. Since the simulator moved to flat events,
// arena-recycled per-message state and machine-owned compile scratch,
// only the outputs that must escape allocate: the Schedule's phase
// slices (~48 allocations); the S1 run itself allocates nothing. 100
// is ~2x the measured 49; a closure or per-event allocation creeping
// back into the hot path blows past it immediately.
const allocBudgetRoundTrip = 100

func TestScheduleSimulateRoundTripAllocs(t *testing.T) {
	cube := NewCube(6)
	m, err := DRegular(64, 16, 4096, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	core := NewSchedCore(cube)
	mach, err := NewSimMachine(cube, DefaultIPSC860())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	roundTrip := func() {
		s, err := core.RSNL(m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mach.RunS1(s); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the scratch
	got := testing.AllocsPerRun(20, roundTrip)
	if got > allocBudgetRoundTrip {
		t.Errorf("reused core+machine round trip: %.1f allocs/run, budget %d", got, allocBudgetRoundTrip)
	}
}
