package topo

import (
	"fmt"

	"unsched/internal/mesh"
)

// RouteTable is the §5 observation made concrete: for a regular
// topology with deterministic routing, every route is a pure function
// of (src, dst), so all n^2 of them can be computed once and shared.
// The table stores the directed-channel indices of every route
// CSR-packed into two flat slices — offsets plus concatenated ids — so
// a route lookup is two array reads and a slice, with no per-call
// route generation and no pointer chasing.
//
// Memory is O(n^2 * diameter): one int32 per route hop plus n^2+1
// offsets, and under maskSpanHopLimit hops the word-mask spans on top.
// On the paper's 64-node hypercube that is ~12k hop entries (~64 KB);
// a 1024-node cube (5.2M hops) keeps ~90 MiB, most of it mask spans.
// Precomputation costs one RouteIDs call per (src, dst) pair, so it
// pays off as soon as a table is reused for more than a handful of
// schedules — which is exactly the shape of campaign and service
// traffic. Build one table per topology and share it: a RouteTable is
// immutable after construction and therefore safe for concurrent
// readers.
//
// A RouteTable is itself a Topology (delegating Name and, in lazy and
// closed-form modes, route generation to the topology it wraps), so it
// can be passed anywhere a Topology goes — in particular to
// ipsc.NewMachine, which detects it and switches channel-occupancy
// checks to the word-at-a-time bitset path below.
//
// Three modes exist. A mesh or torus gets a closed-form table (Grid):
// every XY route is at most four runs of consecutive channel ids
// (mesh.RouteRuns), computed per call in O(1) and tested and claimed a
// bitset word at a time, so the table stores nothing. Any other
// topology gets the dense mode above, which materializes every route,
// or the lazy mode (NewRouteTableLazy, or NewRouteTableAuto past its
// hop budget), which stores nothing and generates routes on the fly
// through the underlying topology — O(1) memory, so machines far past
// the dense footprint (4096-node cubes and graphs) stay schedulable.
// Route exists only in the dense mode; the bitset route API in the
// dense and closed-form modes. Consumers check Lazy() and fall back to
// RouteIDs.
type RouteTable struct {
	t    Topology
	n    int
	lazy bool
	grid *mesh.Mesh // closed-form mode: routes are runs, nothing stored
	// dense storage
	offsets []int32 // len n*n+1; route k occupies ids[offsets[k]:offsets[k+1]]
	ids     []int32 // directed-channel indices of all routes, concatenated
	// word-mask spans: route k's channels grouped per bitset word, so
	// occupancy tests touch each word once instead of each hop once.
	// Built only for tables under maskSpanHopLimit; nil otherwise.
	spanOff  []int32
	spanWord []int32
	spanMask []uint64
}

// DiameterHinter is optionally implemented by topologies that know
// their diameter; NewRouteTable uses it to presize the hop storage in
// one allocation instead of growing it, and NewRouteTableAuto to
// estimate the dense footprint before paying for it.
type DiameterHinter interface {
	Diameter() int
}

// maskSpanHopLimit caps the hop-entry count up to which NewRouteTable
// builds word-mask spans. Spans cost up to 12 bytes per hop on top of
// the 4-byte ids (they usually merge several hops per word and cost
// much less), so building them unconditionally could triple the
// footprint of the largest legal tables; past this limit the bitset
// API falls back to per-hop bit tests over ids, which is still
// branch-per-hop but allocation-free.
const maskSpanHopLimit = 1 << 23

// NewRouteTable precomputes every deterministic route of t, or, for a
// mesh or torus, returns a closed-form table that stores none. It
// panics when n^2 routes cannot be indexed by int32 offsets
// (n > 46340) — tables that size would not fit in memory anyway; use a
// lazy table (NewRouteTableLazy) for such machines.
func NewRouteTable(t Topology) *RouteTable {
	n := t.Nodes()
	if g, ok := t.(*mesh.Mesh); ok {
		return &RouteTable{t: t, n: n, grid: g}
	}
	if int64(n)*int64(n) >= int64(1)<<31 {
		panic(fmt.Sprintf("topo: route table for %d nodes exceeds int32 indexing; use a lazy table", n))
	}
	rt := &RouteTable{t: t, n: n, offsets: make([]int32, n*n+1)}
	if h, ok := t.(DiameterHinter); ok {
		// Average route length is roughly half the diameter on the
		// regular topologies here; presize to that and let append cover
		// the remainder.
		rt.ids = make([]int32, 0, n*n*(h.Diameter()+1)/2)
	}
	var buf []int
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			buf = t.RouteIDs(src, dst, buf[:0])
			for _, id := range buf {
				rt.ids = append(rt.ids, int32(id))
			}
			rt.offsets[src*n+dst+1] = int32(len(rt.ids))
		}
	}
	if len(rt.ids) <= maskSpanHopLimit {
		rt.buildSpans()
	}
	return rt
}

// NewRouteTableLazy wraps t as a RouteTable that stores no routes:
// Route lookups are generated on the fly by the topology. Use it where
// the dense footprint — O(n^2 * diameter) hop entries — exceeds what
// the deployment wants to retain; everything downstream (scheduler
// cores, occupancy tables, simulator machines) degrades gracefully to
// the per-route generation path.
func NewRouteTableLazy(t Topology) *RouteTable {
	return &RouteTable{t: t, n: t.Nodes(), lazy: true}
}

// NewRouteTableAuto builds a dense table when its estimated footprint
// fits within maxDenseHops hop entries, and a lazy one otherwise. The
// estimate is n^2 * (diameter+1)/2 — the same presizing heuristic
// NewRouteTable uses; topologies that do not hint their diameter are
// assumed dense-worthy (none of the built-in ones abstain).
// maxDenseHops <= 0 means no budget: always dense. A mesh or torus
// always gets its closed-form table, which stores no hops.
func NewRouteTableAuto(t Topology, maxDenseHops int64) *RouteTable {
	if _, grid := t.(*mesh.Mesh); maxDenseHops > 0 && !grid {
		n := int64(t.Nodes())
		if n*n >= int64(1)<<31 {
			return NewRouteTableLazy(t)
		}
		if h, ok := t.(DiameterHinter); ok {
			if est := n * n * int64(h.Diameter()+1) / 2; est > maxDenseHops {
				return NewRouteTableLazy(t)
			}
		}
	}
	return NewRouteTable(t)
}

// buildSpans groups every route's channel ids by bitset word. Within
// one route, all hops landing in the same uint64 word merge into a
// single (word, mask) span regardless of hop order, so the occupancy
// test for that word is one AND.
func (rt *RouteTable) buildSpans() {
	rt.spanOff = make([]int32, rt.n*rt.n+1)
	rt.spanWord = make([]int32, 0, len(rt.ids))
	rt.spanMask = make([]uint64, 0, len(rt.ids))
	for k := 0; k < rt.n*rt.n; k++ {
		start := len(rt.spanWord)
		for _, id := range rt.ids[rt.offsets[k]:rt.offsets[k+1]] {
			word, bit := id>>6, uint64(1)<<(uint(id)&63)
			merged := false
			for s := start; s < len(rt.spanWord); s++ {
				if rt.spanWord[s] == word {
					rt.spanMask[s] |= bit
					merged = true
					break
				}
			}
			if !merged {
				rt.spanWord = append(rt.spanWord, word)
				rt.spanMask = append(rt.spanMask, bit)
			}
		}
		rt.spanOff[k+1] = int32(len(rt.spanWord))
	}
}

// Topology returns the topology the table was built from.
func (rt *RouteTable) Topology() Topology { return rt.t }

// Lazy reports whether the table generates routes on the fly instead
// of storing them. Lazy tables do not support Route or the bitset
// route API.
func (rt *RouteTable) Lazy() bool { return rt.lazy }

// Grid returns the mesh or torus of a closed-form table, whose routes
// are mesh.RouteRuns, or nil for dense and lazy tables.
func (rt *RouteTable) Grid() *mesh.Mesh { return rt.grid }

// TableOf returns the non-lazy table to route t through: t itself when
// it is a dense or closed-form table, a closed-form table when t is a
// mesh or torus (bare or wrapped in a lazy table), and nil when routes
// must be generated through t.RouteIDs.
func TableOf(t Topology) *RouteTable {
	if rt, ok := t.(*RouteTable); ok {
		if !rt.lazy {
			return rt
		}
		t = rt.t
	}
	if g, ok := t.(*mesh.Mesh); ok {
		return NewRouteTable(g)
	}
	return nil
}

// Masked reports whether word-mask spans were built (dense tables
// under maskSpanHopLimit hop entries).
func (rt *RouteTable) Masked() bool { return rt.spanOff != nil }

// Name identifies the underlying topology; a RouteTable is
// transparent in output and cache keys.
func (rt *RouteTable) Name() string { return rt.t.Name() }

// Nodes returns the number of processors.
func (rt *RouteTable) Nodes() int { return rt.n }

// NumChannels returns the number of directed channels, the valid index
// range of the ids Route returns.
func (rt *RouteTable) NumChannels() int { return rt.t.NumChannels() }

// RouteIDs appends the directed-channel indices of the route src->dst,
// satisfying Topology. Dense tables copy from storage; lazy and
// closed-form ones delegate to the underlying topology.
func (rt *RouteTable) RouteIDs(src, dst int, buf []int) []int {
	if rt.lazy || rt.grid != nil {
		return rt.t.RouteIDs(src, dst, buf)
	}
	for _, id := range rt.Route(src, dst) {
		buf = append(buf, int(id))
	}
	return buf
}

// Route returns the precomputed directed-channel indices of the route
// src->dst. The slice aliases the table's storage: read-only, valid
// forever, safe to hold across calls. Panics on a lazy or closed-form
// table, which store no routes — use RouteIDs there.
func (rt *RouteTable) Route(src, dst int) []int32 {
	if rt.lazy || rt.grid != nil {
		panic("topo: Route on a table that stores no routes; use RouteIDs")
	}
	k := src*rt.n + dst
	return rt.ids[rt.offsets[k]:rt.offsets[k+1]]
}

// Hops returns the route length from src to dst.
func (rt *RouteTable) Hops(src, dst int) int {
	if rt.offsets != nil {
		k := src*rt.n + dst
		return int(rt.offsets[k+1] - rt.offsets[k])
	}
	if rt.grid != nil {
		return rt.grid.Hops(src, dst)
	}
	return rt.t.Hops(src, dst)
}

// HopEntries returns the total number of stored hops across all
// routes — the n^2 * average-route-length term of the memory bound,
// for tests and capacity planning. Zero for lazy and closed-form
// tables.
func (rt *RouteTable) HopEntries() int { return len(rt.ids) }

// RouteFree reports whether every channel of the route src->dst is
// clear in the packed occupancy bitset busy. On closed-form tables
// this is one masked AND per word each run touches, on masked tables
// one AND per touched word, otherwise one bit test per hop. Panics on
// a lazy table.
func (rt *RouteTable) RouteFree(busy Bitset, src, dst int) bool {
	if rt.spanOff != nil {
		k := src*rt.n + dst
		for s := rt.spanOff[k]; s < rt.spanOff[k+1]; s++ {
			if busy[rt.spanWord[s]]&rt.spanMask[s] != 0 {
				return false
			}
		}
		return true
	}
	if rt.grid != nil {
		var a [4]mesh.Run
		for _, r := range rt.grid.RouteRuns(src, dst, a[:0]) {
			if lo, hi := r.Span(); busy.AnyIn(lo, hi) {
				return false
			}
		}
		return true
	}
	if rt.lazy {
		panic("topo: RouteFree on a lazy table; walk RouteIDs")
	}
	k := src*rt.n + dst
	for _, id := range rt.ids[rt.offsets[k]:rt.offsets[k+1]] {
		if busy[id>>6]&(uint64(1)<<(uint(id)&63)) != 0 {
			return false
		}
	}
	return true
}

// ClaimRoute sets every channel bit of the route src->dst in busy.
// Panics on a lazy table.
func (rt *RouteTable) ClaimRoute(busy Bitset, src, dst int) {
	if rt.spanOff != nil {
		k := src*rt.n + dst
		for s := rt.spanOff[k]; s < rt.spanOff[k+1]; s++ {
			busy[rt.spanWord[s]] |= rt.spanMask[s]
		}
		return
	}
	if rt.grid != nil {
		var a [4]mesh.Run
		for _, r := range rt.grid.RouteRuns(src, dst, a[:0]) {
			busy.SetIn(r.Span())
		}
		return
	}
	if rt.lazy {
		panic("topo: ClaimRoute on a lazy table; walk RouteIDs")
	}
	k := src*rt.n + dst
	for _, id := range rt.ids[rt.offsets[k]:rt.offsets[k+1]] {
		busy[id>>6] |= uint64(1) << (uint(id) & 63)
	}
}

// ReleaseRoute clears every channel bit of the route src->dst in busy.
// Panics on a lazy table.
func (rt *RouteTable) ReleaseRoute(busy Bitset, src, dst int) {
	if rt.spanOff != nil {
		k := src*rt.n + dst
		for s := rt.spanOff[k]; s < rt.spanOff[k+1]; s++ {
			busy[rt.spanWord[s]] &^= rt.spanMask[s]
		}
		return
	}
	if rt.grid != nil {
		var a [4]mesh.Run
		for _, r := range rt.grid.RouteRuns(src, dst, a[:0]) {
			busy.ClearIn(r.Span())
		}
		return
	}
	if rt.lazy {
		panic("topo: ReleaseRoute on a lazy table; walk RouteIDs")
	}
	k := src*rt.n + dst
	for _, id := range rt.ids[rt.offsets[k]:rt.offsets[k+1]] {
		busy[id>>6] &^= uint64(1) << (uint(id) & 63)
	}
}
