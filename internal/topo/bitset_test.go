package topo_test

import (
	"math/rand"
	"slices"
	"testing"

	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/topo"
)

// TestLazyTableDelegates checks that a lazy table is observably the
// same Topology as the one it wraps: identical name, shape, hops, and
// generated routes, with zero stored hop entries.
func TestLazyTableDelegates(t *testing.T) {
	for _, net := range tableTopologies(t) {
		rt := topo.NewRouteTableLazy(net)
		if !rt.Lazy() {
			t.Fatalf("%s: NewRouteTableLazy built a dense table", net.Name())
		}
		if rt.Masked() {
			t.Fatalf("%s: lazy table claims mask spans", net.Name())
		}
		if rt.HopEntries() != 0 {
			t.Fatalf("%s: lazy table stores %d hop entries", net.Name(), rt.HopEntries())
		}
		if rt.Name() != net.Name() || rt.Nodes() != net.Nodes() || rt.NumChannels() != net.NumChannels() {
			t.Fatalf("%s: lazy table shape differs from topology", net.Name())
		}
		var want, got []int
		n := net.Nodes()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				want = net.RouteIDs(src, dst, want[:0])
				got = rt.RouteIDs(src, dst, got[:0])
				if len(want) != len(got) {
					t.Fatalf("%s: lazy route %d->%d: %v vs %v", net.Name(), src, dst, got, want)
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%s: lazy route %d->%d: %v vs %v", net.Name(), src, dst, got, want)
					}
				}
				if rt.Hops(src, dst) != net.Hops(src, dst) {
					t.Fatalf("%s: lazy Hops(%d,%d) = %d, topology %d",
						net.Name(), src, dst, rt.Hops(src, dst), net.Hops(src, dst))
				}
			}
		}
	}
}

// TestDenseTableImplementsTopology checks the dense table's Topology
// facade: RouteIDs copies the stored route.
func TestDenseTableImplementsTopology(t *testing.T) {
	net := hypercube.MustNew(4)
	var rt topo.Topology = topo.NewRouteTable(net)
	var want, got []int
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			want = net.RouteIDs(src, dst, want[:0])
			got = rt.RouteIDs(src, dst, got[:0])
			if len(want) != len(got) {
				t.Fatalf("route %d->%d: %v vs %v", src, dst, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("route %d->%d: %v vs %v", src, dst, got, want)
				}
			}
		}
	}
}

// TestAutoTableChoosesMode checks the footprint-driven mode choice: a
// generous budget yields a dense table, a tiny one a lazy table, and
// no budget always dense.
func TestAutoTableChoosesMode(t *testing.T) {
	net := hypercube.MustNew(6)
	if rt := topo.NewRouteTableAuto(net, 1<<26); rt.Lazy() {
		t.Error("64-node cube under a 2^26 budget should be dense")
	}
	if rt := topo.NewRouteTableAuto(net, 64); !rt.Lazy() {
		t.Error("64-node cube under a 64-hop budget should be lazy")
	}
	if rt := topo.NewRouteTableAuto(net, 0); rt.Lazy() {
		t.Error("no budget should always build dense")
	}
	// A mesh or torus is closed-form under any budget: a 32x32 torus
	// would be ~17M dense hops (1024^2 * (32+1)/2), but its table
	// stores none.
	big := mesh.MustNew(32, 32, true)
	for _, budget := range []int64{1 << 20, 1 << 26, 0} {
		rt := topo.NewRouteTableAuto(big, budget)
		if rt.Lazy() || rt.Grid() == nil || rt.HopEntries() != 0 {
			t.Errorf("32x32 torus under budget %d: lazy=%v closed-form=%v hops=%d, want a closed-form table",
				budget, rt.Lazy(), rt.Grid() != nil, rt.HopEntries())
		}
	}
}

// TestBitsetRouteOpsMatchBoolOccupancy drives the word-at-a-time
// bitset route API (mask spans on dense tables, runs on closed-form
// ones) and a reference per-channel bool table through the same
// randomized claim/release/probe sequence on every sweep topology,
// requiring identical answers throughout. (The per-hop
// fallback of tables above the span limit is covered by the internal
// TestBitsetFallbackMatchesMaskedPath.)
func TestBitsetRouteOpsMatchBoolOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(860))
	for _, net := range tableTopologies(t) {
		n := net.Nodes()
		if n < 2 {
			continue
		}
		rt := topo.NewRouteTable(net)
		if !rt.Masked() && rt.Grid() == nil {
			t.Fatalf("%s: sweep table unexpectedly above the span limit", net.Name())
		}
		busy := make([]uint64, topo.BitsetWords(net.NumChannels()))
		ref := make([]bool, net.NumChannels())
		refFree := func(src, dst int) bool {
			for _, id := range net.RouteIDs(src, dst, nil) {
				if ref[id] {
					return false
				}
			}
			return true
		}
		refSet := func(src, dst int, v bool) {
			for _, id := range net.RouteIDs(src, dst, nil) {
				ref[id] = v
			}
		}
		type claim struct{ src, dst int }
		var held []claim
		for step := 0; step < 2000; step++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if got, want := rt.RouteFree(busy, src, dst), refFree(src, dst); got != want {
				t.Fatalf("%s step %d: RouteFree(%d,%d) = %v, reference %v",
					net.Name(), step, src, dst, got, want)
			}
			switch {
			case rng.Intn(3) == 0 && len(held) > 0:
				i := rng.Intn(len(held))
				c := held[i]
				rt.ReleaseRoute(busy, c.src, c.dst)
				refSet(c.src, c.dst, false)
				held = append(held[:i], held[i+1:]...)
			case rt.RouteFree(busy, src, dst) && src != dst:
				rt.ClaimRoute(busy, src, dst)
				refSet(src, dst, true)
				held = append(held, claim{src, dst})
			}
		}
	}
}

// TestBitsetRangesMatchPerBitLoop checks the word-at-a-time range
// helpers against a per-bit loop, over random contents and every range
// whose ends lie on or next to a word boundary: 0, 63, 64, 127, 128,
// and the first and last bit of the last word.
func TestBitsetRangesMatchPerBitLoop(t *testing.T) {
	const words = 4
	const nbits = words * 64
	ends := []int{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192, 254, nbits - 1}
	bit := func(b topo.Bitset, i int) bool { return b[i>>6]&(uint64(1)<<(uint(i)&63)) != 0 }
	rng := rand.New(rand.NewSource(64))
	for fill := 0; fill < 40; fill++ {
		b := make(topo.Bitset, words)
		for w := range b {
			// Sparse and dense contents, so empty and full ranges occur.
			b[w] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			if fill%2 == 1 {
				b[w] = ^b[w]
			}
		}
		for _, lo := range ends {
			for _, hi := range ends {
				if lo > hi {
					continue
				}
				first, last := -1, -1
				for i := lo; i <= hi; i++ {
					if bit(b, i) {
						if first < 0 {
							first = i
						}
						last = i
					}
				}
				if got := b.AnyIn(lo, hi); got != (first >= 0) {
					t.Fatalf("fill %d: AnyIn(%d,%d) = %v, per-bit loop %v", fill, lo, hi, got, first >= 0)
				}
				if got := b.FirstIn(lo, hi); got != first {
					t.Fatalf("fill %d: FirstIn(%d,%d) = %d, per-bit loop %d", fill, lo, hi, got, first)
				}
				if got := b.LastIn(lo, hi); got != last {
					t.Fatalf("fill %d: LastIn(%d,%d) = %d, per-bit loop %d", fill, lo, hi, got, last)
				}
				set, cleared := slices.Clone(b), slices.Clone(b)
				set.SetIn(lo, hi)
				cleared.ClearIn(lo, hi)
				for i := 0; i < nbits; i++ {
					in := lo <= i && i <= hi
					if want := bit(b, i) || in; bit(set, i) != want {
						t.Fatalf("fill %d: SetIn(%d,%d): bit %d = %v, want %v", fill, lo, hi, i, bit(set, i), want)
					}
					if want := bit(b, i) && !in; bit(cleared, i) != want {
						t.Fatalf("fill %d: ClearIn(%d,%d): bit %d = %v, want %v", fill, lo, hi, i, bit(cleared, i), want)
					}
				}
			}
		}
		// The run-release loop asks for the next bit past a range's
		// last one; that empty range must not read past the set.
		if got := b.FirstIn(nbits, nbits-1); got != -1 {
			t.Fatalf("fill %d: FirstIn on an empty range = %d, want -1", fill, got)
		}
	}
}
