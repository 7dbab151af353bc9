// Allocation bounds for building route tables. Excluded under the race
// detector: its instrumentation changes allocation counts.
//
//go:build !race

package topo_test

import (
	"runtime"
	"testing"

	"unsched/internal/mesh"
	"unsched/internal/topo"
)

// TestTorusTablesStoreNoHops checks that mesh and torus route tables
// are closed-form at the service's torus sizes: NewRouteTable and
// NewRouteTableAuto store no hop entries and allocate next to nothing.
// A dense torus:32x32 table holds ~17M hops, about 70 MiB.
func TestTorusTablesStoreNoHops(t *testing.T) {
	const bound = 64 << 10
	for _, side := range []int{32, 64} {
		net := mesh.MustNew(side, side, true)
		for name, build := range map[string]func() *topo.RouteTable{
			"NewRouteTable":     func() *topo.RouteTable { return topo.NewRouteTable(net) },
			"NewRouteTableAuto": func() *topo.RouteTable { return topo.NewRouteTableAuto(net, 1<<26) },
		} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rt := build()
			runtime.ReadMemStats(&after)
			if rt.HopEntries() != 0 || rt.Lazy() || rt.Grid() == nil {
				t.Errorf("%s(%s): %d hop entries, lazy=%v, closed-form=%v; want a closed-form table",
					name, net.Name(), rt.HopEntries(), rt.Lazy(), rt.Grid() != nil)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > bound {
				t.Errorf("%s(%s) allocated %d KiB, bound %d KiB", name, net.Name(), got>>10, bound>>10)
			}
		}
	}
}
