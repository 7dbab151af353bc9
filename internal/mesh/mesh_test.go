package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, false); err == nil {
		t.Error("0-width accepted")
	}
	if _, err := New(1, 1, false); err == nil {
		t.Error("single node accepted")
	}
	if _, err := New(2, 2, true); err == nil {
		t.Error("2x2 torus accepted")
	}
	m, err := New(8, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 32 || m.Width() != 8 || m.Height() != 4 {
		t.Errorf("shape: %v", m)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0,0) did not panic")
		}
	}()
	MustNew(0, 0, false)
}

func TestCoordIDRoundTrip(t *testing.T) {
	m := MustNew(5, 7, false)
	for id := 0; id < m.Nodes(); id++ {
		x, y := m.Coord(id)
		if m.ID(x, y) != id {
			t.Fatalf("round trip broke at %d", id)
		}
	}
}

func TestNames(t *testing.T) {
	if MustNew(4, 4, false).Name() != "mesh-4x4" {
		t.Error("mesh name")
	}
	if MustNew(4, 4, true).Name() != "torus-4x4" {
		t.Error("torus name")
	}
}

func TestXYRouteShape(t *testing.T) {
	m := MustNew(4, 4, false)
	// (0,0) -> (2,1): two +X hops then one +Y hop.
	route := m.RouteIDs(m.ID(0, 0), m.ID(2, 1), nil)
	want := []int{
		m.channel(0, 0, dirXPlus),
		m.channel(1, 0, dirXPlus),
		m.channel(2, 0, dirYPlus),
	}
	if len(route) != len(want) {
		t.Fatalf("route %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route %v, want %v", route, want)
		}
	}
}

func TestRouteLengthEqualsHops(t *testing.T) {
	for _, torus := range []bool{false, true} {
		m := MustNew(5, 4, torus)
		for src := 0; src < m.Nodes(); src++ {
			for dst := 0; dst < m.Nodes(); dst++ {
				route := m.RouteIDs(src, dst, nil)
				if len(route) != m.Hops(src, dst) {
					t.Fatalf("torus=%v %d->%d: route %d, hops %d",
						torus, src, dst, len(route), m.Hops(src, dst))
				}
			}
		}
	}
}

func TestTorusTakesShortWay(t *testing.T) {
	m := MustNew(8, 3, true)
	// (0,0) -> (7,0): one -X wraparound hop, not 7 +X hops.
	if got := m.Hops(m.ID(0, 0), m.ID(7, 0)); got != 1 {
		t.Errorf("wraparound hops = %d, want 1", got)
	}
	flat := MustNew(8, 3, false)
	if got := flat.Hops(flat.ID(0, 0), flat.ID(7, 0)); got != 7 {
		t.Errorf("mesh hops = %d, want 7", got)
	}
}

func TestChannelIndicesDenseAndDistinct(t *testing.T) {
	m := MustNew(4, 4, true)
	seen := map[int]bool{}
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			for _, id := range m.RouteIDs(src, dst, nil) {
				if id < 0 || id >= m.NumChannels() {
					t.Fatalf("channel %d out of range", id)
				}
				seen[id] = true
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no channels used")
	}
}

// Property: opposite directions of the same hop use different channels
// (full duplex).
func TestOppositeDirectionsDistinct(t *testing.T) {
	m := MustNew(6, 6, false)
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw) % m.Nodes()
		b := int(bRaw) % m.Nodes()
		if a == b {
			return true
		}
		fwd := m.RouteIDs(a, b, nil)
		rev := m.RouteIDs(b, a, nil)
		for _, f := range fwd {
			for _, r := range rev {
				if f == r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoutePanicsOutOfRange(t *testing.T) {
	m := MustNew(4, 4, false)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range route did not panic")
		}
	}()
	m.RouteIDs(0, 99, nil)
}

// routeIDsModulo is the per-hop modulo form of XY routing that
// RouteIDs' compare-based stepping replaced: the direction is
// re-derived and the coordinate wrapped with wrap() on every hop.
func routeIDsModulo(m *Mesh, src, dst int, buf []int) []int {
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)
	x := sx
	for x != dx {
		step, dir := m.axisStep(x, dx, m.w, dirXPlus)
		buf = append(buf, m.channel(x, sy, dir))
		x = wrap(x+step, m.w)
	}
	y := sy
	for y != dy {
		step, dir := m.axisStep(y, dy, m.h, dirYPlus)
		buf = append(buf, m.channel(dx, y, dir))
		y = wrap(y+step, m.h)
	}
	return buf
}

func wrap(v, size int) int {
	v %= size
	if v < 0 {
		v += size
	}
	return v
}

// TestRouteIDsMatchModuloForm pins the routes produced by RouteIDs to
// the modulo form hop for hop: exhaustively on small tori and a mesh
// (odd and even ring sizes, so both tie-breaking cases occur), and on
// sampled pairs of the 4096-node torus the service accepts.
func TestRouteIDsMatchModuloForm(t *testing.T) {
	check := func(m *Mesh, src, dst int) {
		t.Helper()
		got := m.RouteIDs(src, dst, nil)
		want := routeIDsModulo(m, src, dst, nil)
		if len(got) != len(want) {
			t.Fatalf("%s %d->%d: route %v, modulo form %v", m.Name(), src, dst, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s %d->%d: route %v, modulo form %v", m.Name(), src, dst, got, want)
			}
		}
	}
	for _, m := range []*Mesh{MustNew(3, 3, true), MustNew(5, 4, true), MustNew(4, 3, false)} {
		for src := 0; src < m.Nodes(); src++ {
			for dst := 0; dst < m.Nodes(); dst++ {
				check(m, src, dst)
			}
		}
	}
	big := MustNew(64, 64, true)
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 20000; i++ {
		check(big, rng.Intn(big.Nodes()), rng.Intn(big.Nodes()))
	}
	// Every row and column offset from one corner, including the
	// half-ring ties.
	for dst := 0; dst < big.Nodes(); dst++ {
		check(big, 0, dst)
	}
}

// expandRuns lists the channel ids of runs in the order a route
// crosses them.
func expandRuns(runs []Run) []int {
	var ids []int
	for _, r := range runs {
		step := 1
		if r.First > r.Last {
			step = -1
		}
		for id := r.First; ; id += step {
			ids = append(ids, id)
			if id == r.Last {
				break
			}
		}
	}
	return ids
}

// TestRouteRunsMatchRouteIDs pins the closed-form runs to the hop-by-hop
// route: for every pair of small meshes and tori (degenerate rows and
// columns, non-square shapes, odd sides, and even rings whose
// half-ring ties route in the positive direction), and for sampled
// pairs of the 4096-node torus, expanding RouteRuns in route order
// gives exactly RouteIDs, in at most four runs.
func TestRouteRunsMatchRouteIDs(t *testing.T) {
	check := func(m *Mesh, src, dst int) {
		t.Helper()
		runs := m.RouteRuns(src, dst, nil)
		got, want := expandRuns(runs), m.RouteIDs(src, dst, nil)
		if len(runs) > 4 || len(got) != len(want) {
			t.Fatalf("%s %d->%d: runs %v expand to %v, RouteIDs %v", m.Name(), src, dst, runs, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s %d->%d: runs %v expand to %v, RouteIDs %v", m.Name(), src, dst, runs, got, want)
			}
		}
	}
	for _, m := range []*Mesh{
		MustNew(3, 3, false), MustNew(1, 7, false), MustNew(7, 1, false), MustNew(5, 3, false),
		MustNew(3, 3, true), MustNew(6, 6, true), MustNew(8, 5, true), MustNew(7, 5, true),
	} {
		for src := 0; src < m.Nodes(); src++ {
			for dst := 0; dst < m.Nodes(); dst++ {
				check(m, src, dst)
			}
		}
	}
	big := MustNew(64, 64, true)
	rng := rand.New(rand.NewSource(4096))
	for i := 0; i < 20000; i++ {
		check(big, rng.Intn(big.Nodes()), rng.Intn(big.Nodes()))
	}
}
