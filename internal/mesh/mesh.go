// Package mesh implements a 2D mesh (and torus) topology with
// dimension-ordered XY routing — the network of the iPSC/860's
// successors (Intel Paragon, and the Touchstone Delta the CalTech
// group moved to). Like e-cube on the hypercube, XY routing is
// deterministic, so the link-contention-avoiding scheduler works
// unchanged through the topo.Topology interface; this is the mesh
// generalization the paper's §5 parenthetical anticipates.
package mesh

import (
	"fmt"
)

// Mesh is a W x H grid of nodes. Node (x, y) has id y*W + x. Each
// grid edge is two directed channels; with Torus set, wraparound
// channels close each row and column.
type Mesh struct {
	w, h  int
	torus bool
}

// New returns a w x h mesh.
func New(w, h int, torus bool) (*Mesh, error) {
	if w < 1 || h < 1 || w*h < 2 {
		return nil, fmt.Errorf("mesh: dimensions %dx%d too small", w, h)
	}
	if torus && (w < 3 || h < 3) {
		// A 2-ring's wraparound duplicates the grid edge; routing
		// would be ambiguous.
		return nil, fmt.Errorf("mesh: torus needs at least 3x3, got %dx%d", w, h)
	}
	return &Mesh{w: w, h: h, torus: torus}, nil
}

// MustNew is New for known-good dimensions; it panics on error.
func MustNew(w, h int, torus bool) *Mesh {
	m, err := New(w, h, torus)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements topo.Topology.
func (m *Mesh) Name() string {
	kind := "mesh"
	if m.torus {
		kind = "torus"
	}
	return fmt.Sprintf("%s-%dx%d", kind, m.w, m.h)
}

// Nodes implements topo.Topology.
func (m *Mesh) Nodes() int { return m.w * m.h }

// Width and Height expose the grid shape.
func (m *Mesh) Width() int  { return m.w }
func (m *Mesh) Height() int { return m.h }

// Coord returns the (x, y) position of a node id.
func (m *Mesh) Coord(node int) (x, y int) { return node % m.w, node / m.w }

// ID returns the node id at (x, y).
func (m *Mesh) ID(x, y int) int { return y*m.w + x }

// Directed channel layout: four direction planes of w*h slots each,
// +X, -X, +Y, -Y in that order. The channel from node (x, y) in
// direction dir leaves (x, y) toward the neighbour in that direction.
// The X planes are row-major (slot y*w + x) and the Y planes
// column-major (slot x*h + y), so the hops of one axis leg — a walk
// along a row or a column in one direction — are consecutive ids, and
// an XY route is at most four runs of them (RouteRuns). Mesh-edge
// slots at the boundary exist only on a torus; on a plain mesh they
// are never routed through, which wastes a few indices but keeps the
// arithmetic branch-free.
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
	dirCount
)

// NumChannels implements topo.Topology.
func (m *Mesh) NumChannels() int { return dirCount * m.w * m.h }

// channel returns the id of the channel leaving (x, y) in direction
// dir.
func (m *Mesh) channel(x, y, dir int) int {
	if dir < dirYPlus {
		return dir*m.w*m.h + y*m.w + x
	}
	return dir*m.w*m.h + x*m.h + y
}

// Run is a run of consecutive channel ids that a route crosses in
// order from First to Last, both inclusive. First > Last means the run
// is crossed from high ids to low.
type Run struct{ First, Last int }

// Span returns the run's id range [lo, hi] regardless of direction.
func (r Run) Span() (lo, hi int) {
	if r.First <= r.Last {
		return r.First, r.Last
	}
	return r.Last, r.First
}

// RouteRuns appends the route src->dst of RouteIDs as runs of
// consecutive channel ids, in route order, and returns the extended
// slice: one run per axis leg, or two when the leg wraps around the
// torus, so at most four. Expanding the runs in order gives RouteIDs
// exactly; a caller that passes a buffer of capacity 4 never
// allocates.
func (m *Mesh) RouteRuns(src, dst int, buf []Run) []Run {
	if src < 0 || src >= m.Nodes() || dst < 0 || dst >= m.Nodes() {
		panic(fmt.Sprintf("mesh: route %d->%d outside %s", src, dst, m.Name()))
	}
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)
	n := m.w * m.h
	if sx != dx {
		// Row sy of the X plane: ids base+x for x in [0, w).
		step, dir := m.axisStep(sx, dx, m.w, dirXPlus)
		buf = legRuns(buf, dir*n+sy*m.w, sx, dx, step, m.w)
	}
	if sy != dy {
		// Column dx of the Y plane: ids base+y for y in [0, h).
		step, dir := m.axisStep(sy, dy, m.h, dirYPlus)
		buf = legRuns(buf, dir*n+dx*m.h, sy, dy, step, m.h)
	}
	return buf
}

// legRuns appends the runs of one axis leg from position from to
// position to (from != to) on a ring of the given size, whose channel
// at position p is base+p. The leg crosses the channels of positions
// from, from+step, ..., up to but excluding to; it wraps when to lies
// behind from in the direction of travel.
func legRuns(buf []Run, base, from, to, step, size int) []Run {
	if step > 0 {
		if to > from {
			return append(buf, Run{base + from, base + to - 1})
		}
		buf = append(buf, Run{base + from, base + size - 1})
		if to > 0 {
			buf = append(buf, Run{base, base + to - 1})
		}
		return buf
	}
	if to < from {
		return append(buf, Run{base + from, base + to + 1})
	}
	buf = append(buf, Run{base + from, base})
	if to < size-1 {
		buf = append(buf, Run{base + size - 1, base + to + 1})
	}
	return buf
}

// RouteIDs implements topo.Topology: dimension-ordered XY routing —
// resolve the X offset fully, then the Y offset. On a torus each axis
// takes the shorter way around (ties toward the positive direction).
func (m *Mesh) RouteIDs(src, dst int, buf []int) []int {
	if src < 0 || src >= m.Nodes() || dst < 0 || dst >= m.Nodes() {
		panic(fmt.Sprintf("mesh: route %d->%d outside %s", src, dst, m.Name()))
	}
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)

	// The direction of travel is fixed for a whole axis (the shorter
	// way stays shorter after every step along it), and each step moves
	// one position, so the torus wraparound is one compare per hop
	// rather than a modulo.
	if sx != dx {
		step, dir := m.axisStep(sx, dx, m.w, dirXPlus)
		for x := sx; x != dx; x = stepWrap(x, step, m.w) {
			buf = append(buf, m.channel(x, sy, dir))
		}
	}
	if sy != dy {
		step, dir := m.axisStep(sy, dy, m.h, dirYPlus)
		for y := sy; y != dy; y = stepWrap(y, step, m.h) {
			buf = append(buf, m.channel(dx, y, dir))
		}
	}
	return buf
}

// stepWrap moves v one position (step is +1 or -1) around a ring of
// the given size. On a plain mesh XY routing never leaves the grid, so
// neither wrap branch fires.
func stepWrap(v, step, size int) int {
	v += step
	if v == size {
		return 0
	}
	if v < 0 {
		return size - 1
	}
	return v
}

// axisStep picks the direction of travel along one axis, from
// position from to position to on a ring (torus) or line (mesh) of the
// given size. plus is the axis's + direction plane (dirXPlus or
// dirYPlus); its - direction is the plane after it.
func (m *Mesh) axisStep(from, to, size, plus int) (step, dir int) {
	fwd := to - from
	if m.torus {
		if fwd < 0 {
			fwd += size
		}
		if fwd <= size-fwd {
			return 1, plus
		}
		return -1, plus + 1
	}
	if fwd > 0 {
		return 1, plus
	}
	return -1, plus + 1
}

// Hops implements topo.Topology.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)
	return m.axisDist(sx, dx, m.w) + m.axisDist(sy, dy, m.h)
}

// Diameter implements topo.DiameterHinter: opposite corners on a
// mesh, half the ring length per axis on a torus.
func (m *Mesh) Diameter() int {
	if m.torus {
		return m.w/2 + m.h/2
	}
	return (m.w - 1) + (m.h - 1)
}

func (m *Mesh) axisDist(a, b, size int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if m.torus && size-d < d {
		d = size - d
	}
	return d
}

// String implements fmt.Stringer.
func (m *Mesh) String() string {
	return fmt.Sprintf("%s (%d nodes)", m.Name(), m.Nodes())
}
