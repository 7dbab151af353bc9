package hypercube_test

import (
	"math/rand"
	"testing"

	"unsched/internal/hypercube"
	"unsched/internal/topo"
)

// The tests below drive topo.Occupancy, the claim table the RS_NL
// family and schedule validation use, over e-cube routes. They live in
// an external test package because topo imports hypercube.

// The classic theorem the LP algorithm relies on: for any k, the e-cube
// routes of all pairs (i, i^k) are mutually link-disjoint. Verify
// exhaustively on the paper's 64-node machine.
func TestXORPermutationLinkDisjointOn64Nodes(t *testing.T) {
	c := hypercube.MustNew(6)
	occ := topo.NewOccupancy(c)
	for k := 1; k < c.Nodes(); k++ {
		occ.Reset()
		// Every node sends concurrently (both directions of every
		// exchange); at channel granularity the full permutation is
		// contention-free.
		for i := 0; i < c.Nodes(); i++ {
			j := i ^ k
			if !occ.CheckPath(i, j) {
				t.Fatalf("k=%d: route %d->%d conflicts with earlier circuit", k, i, j)
			}
			occ.MarkPath(i, j)
		}
	}
}

func TestOccupancyCheckMark(t *testing.T) {
	c := hypercube.MustNew(6)
	occ := topo.NewOccupancy(c)
	if !occ.CheckPath(0, 7) {
		t.Fatal("empty table: path should be free")
	}
	occ.MarkPath(0, 7) // 0->1->3->7 claims up-channels in dims 0,1,2
	if occ.CheckPath(0, 1) {
		t.Error("up channel 0->1 should be claimed")
	}
	if occ.CheckPath(1, 3) {
		t.Error("up channel 1->3 should be claimed")
	}
	if !occ.CheckPath(1, 0) {
		t.Error("down channel 1->0 should be free (full duplex)")
	}
	if !occ.CheckPath(8, 9) {
		t.Error("unrelated channel 8->9 should be free")
	}
	if got := occ.ClaimedCount(); got != 3 {
		t.Errorf("ClaimedCount = %d, want 3", got)
	}
	occ.Reset()
	if !occ.CheckPath(0, 1) {
		t.Error("after Reset all links should be free")
	}
	if got := occ.ClaimedCount(); got != 0 {
		t.Errorf("ClaimedCount after reset = %d, want 0", got)
	}
}

func TestOccupancySelfRouteAlwaysFree(t *testing.T) {
	c := hypercube.MustNew(4)
	occ := topo.NewOccupancy(c)
	for i := 0; i < c.Nodes(); i++ {
		occ.MarkPath(i, (i+1)%c.Nodes())
	}
	for i := 0; i < c.Nodes(); i++ {
		if !occ.CheckPath(i, i) {
			t.Fatalf("self route at node %d should always be free", i)
		}
	}
}

// TestOccupancyEpochReuse runs many reset cycles over one table, which
// must not leak claims between phases.
func TestOccupancyEpochReuse(t *testing.T) {
	c := hypercube.MustNew(5)
	occ := topo.NewOccupancy(c)
	r := rand.New(rand.NewSource(7))
	for phase := 0; phase < 200; phase++ {
		occ.Reset()
		src := r.Intn(c.Nodes())
		dst := r.Intn(c.Nodes())
		if !occ.CheckPath(src, dst) {
			t.Fatalf("phase %d: fresh table has stale claim on %d->%d", phase, src, dst)
		}
		occ.MarkPath(src, dst)
	}
}
