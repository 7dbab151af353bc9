// Package topo abstracts the deterministic-routing topologies the
// link-contention-avoiding scheduler and the machine simulator run on.
// The paper's machine is a hypercube with e-cube routing, but §5 notes
// the approach applies to any regular topology with deterministic
// routing ("for regular topologies like mesh and hypercube, the size
// of PATHS can be much smaller"); this interface is that observation
// made concrete. internal/hypercube and internal/mesh implement it.
package topo

// Topology is a network with deterministic routing over directed
// channels. Channels are identified by dense indices in
// [0, NumChannels()), so occupancy tables are flat arrays.
type Topology interface {
	// Name identifies the topology in output ("hypercube-6",
	// "mesh-8x8", ...).
	Name() string
	// Nodes returns the number of processors.
	Nodes() int
	// NumChannels returns the number of directed channels.
	NumChannels() int
	// RouteIDs appends the directed-channel indices of the
	// deterministic route from src to dst and returns the extended
	// slice. An empty route (src == dst) appends nothing.
	RouteIDs(src, dst int, buf []int) []int
	// Hops returns the route length from src to dst.
	Hops(src, dst int) int
}

// Occupancy is a per-phase channel-claim table over any Topology: the
// generic form of the paper's PATHS array. It supports the Check_Path /
// Mark_Path operations of the RS_NL algorithm (Figure 4). Claims are
// kept per directed channel, because iPSC/860 links are full-duplex:
// two circuits may cross one wire in opposite directions without
// contention. They live in a channel Bitset, so Reset clears
// NumChannels/64 words.
//
// A mesh or torus tests and claims the closed-form runs of channel ids
// of its routes a word at a time (RouteTable.RouteFree). Over a dense
// RouteTable (NewOccupancyTable), CheckPath and MarkPath are index
// walks over the table's stored routes with no route generation.
// Anything else generates each route through Topology.RouteIDs.
type Occupancy struct {
	t    Topology
	grid *RouteTable // non-nil: closed-form mesh/torus routes
	rt   *RouteTable // non-nil: dense table, walk its stored routes
	bits Bitset
	buf  []int
}

// NewOccupancy returns an empty claim table for t, generating routes
// on the fly unless t is a mesh or torus or a dense table.
func NewOccupancy(t Topology) *Occupancy {
	o := &Occupancy{t: t, bits: make(Bitset, BitsetWords(t.NumChannels()))}
	if rt := TableOf(t); rt != nil && rt.grid != nil {
		o.grid = rt
	} else {
		o.rt = rt
	}
	return o
}

// NewOccupancyTable returns an empty claim table that routes through
// rt. The table is shared read-only; each Occupancy keeps only its own
// claims. A lazy table stores no routes, so the occupancy falls back
// to generating them through the underlying topology — same results,
// per-route generation cost.
func NewOccupancyTable(rt *RouteTable) *Occupancy {
	if rt.Lazy() {
		return NewOccupancy(rt.Topology())
	}
	return NewOccupancy(rt)
}

// Reset clears all claims.
func (o *Occupancy) Reset() { clear(o.bits) }

// CheckPath reports whether the route src->dst is entirely unclaimed
// in the current phase (the paper's Check_Path).
func (o *Occupancy) CheckPath(src, dst int) bool {
	if o.rt != nil {
		for _, id := range o.rt.Route(src, dst) {
			if o.bits[id>>6]&(uint64(1)<<(uint(id)&63)) != 0 {
				return false
			}
		}
		return true
	}
	if o.grid != nil {
		return o.grid.RouteFree(o.bits, src, dst)
	}
	o.buf = o.t.RouteIDs(src, dst, o.buf[:0])
	for _, id := range o.buf {
		if o.bits[id>>6]&(uint64(1)<<(uint(id)&63)) != 0 {
			return false
		}
	}
	return true
}

// MarkPath claims every channel on the route src->dst for the current
// phase (the paper's Mark_Path).
func (o *Occupancy) MarkPath(src, dst int) {
	if o.rt != nil {
		for _, id := range o.rt.Route(src, dst) {
			o.bits[id>>6] |= uint64(1) << (uint(id) & 63)
		}
		return
	}
	if o.grid != nil {
		o.grid.ClaimRoute(o.bits, src, dst)
		return
	}
	o.buf = o.t.RouteIDs(src, dst, o.buf[:0])
	for _, id := range o.buf {
		o.bits[id>>6] |= uint64(1) << (uint(id) & 63)
	}
}

// ClaimedCount returns the number of channels currently claimed;
// O(channels), for tests and traces.
func (o *Occupancy) ClaimedCount() int { return o.bits.Count() }
