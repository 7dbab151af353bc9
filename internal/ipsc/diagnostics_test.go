package ipsc

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/sched"
	"unsched/internal/topo"
)

// TestDeadlockErrorNamesStuckNodes pins the diagnostic contract of
// deadlockError: the message names each stuck node with its program
// counter and current op, and truncates after eight entries so a
// wedged 1024-node run does not produce a megabyte error string.
func TestDeadlockErrorNamesStuckNodes(t *testing.T) {
	m := mustMachine(t, 4) // 16 nodes
	programs := make([][]op, 16)
	// Ten orphan receives: more than the 8-entry cap.
	for i := 0; i < 10; i++ {
		programs[i] = []op{{kind: opWaitRecv, peer: int32((i + 1) % 16)}}
	}
	_, err := m.run(programs)
	if err == nil {
		t.Fatal("ten orphan receives not detected")
	}
	msg := err.Error()
	if !strings.Contains(msg, "deadlock") {
		t.Fatalf("error %q should mention deadlock", msg)
	}
	// The first stuck node, with pc and op rendered.
	if !strings.Contains(msg, "P0@0:") {
		t.Errorf("error %q should name stuck node P0 at pc 0", msg)
	}
	// Truncated: the 9th and later stuck nodes collapse to "...".
	if !strings.Contains(msg, "...") {
		t.Errorf("error %q should truncate after 8 stuck nodes", msg)
	}
	if strings.Contains(msg, "P9@") {
		t.Errorf("error %q lists more than 8 stuck nodes", msg)
	}
}

// TestPendingSummary checks the blocked-attempt renderer used by
// contention tests and the deadlock diagnostic: attempts parked
// through the real blocking path are labelled send/xchg by kind and
// returned sorted regardless of arena order, and a drained machine
// renders empty.
func TestPendingSummary(t *testing.T) {
	m := mustMachine(t, 3)
	programs := make([][]op, 8)
	// P0's long send to 2 holds node 2's receive side, so the exchange
	// 1<->2 (created at P2's advance) and the long sends from 3 and 6
	// all park on node 2 at t=0 — in arena order xchg, send, send.
	programs[0] = []op{{kind: opSendFire, peer: 2, bytes: 4096}}
	programs[1] = []op{{kind: opExchange, peer: 2, bytes: 512}}
	programs[2] = []op{{kind: opExchange, peer: 1, bytes: 512}}
	programs[3] = []op{{kind: opSendFire, peer: 2, bytes: 4096}}
	programs[6] = []op{{kind: opSendFire, peer: 2, bytes: 4096}}
	if err := m.load(programs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // the eight t=0 advances
		m.eng.Step()
	}
	got := m.pendingSummary()
	want := []string{"send 3->2", "send 6->2", "xchg 1->2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pendingSummary() = %v, want %v", got, want)
	}
	// Run to completion: every parked attempt is woken and started, so
	// the summary renders empty, not nil-panic.
	if _, err := m.eng.Run(m.maxEvents); err != nil {
		t.Fatal(err)
	}
	if got := m.pendingSummary(); len(got) != 0 {
		t.Errorf("drained machine rendered %v", got)
	}
}

// TestDeadlockErrorNamesParkedAttempts covers the one way a run can end
// with attempts still parked: a resource that is never released. A
// channel held outside any circuit stands in for a lost wake-up; the
// deadlock error must name the attempt parked behind it.
func TestDeadlockErrorNamesParkedAttempts(t *testing.T) {
	m := mustMachine(t, 3)
	id := m.net.RouteIDs(0, 1, nil)[0]
	m.chanBusy[id>>6] |= uint64(1) << (uint(id) & 63)
	programs := make([][]op, 8)
	programs[0] = []op{{kind: opSendFire, peer: 1, bytes: 4096}}
	_, err := m.run(programs)
	if err == nil {
		t.Fatal("send behind a never-released channel completed")
	}
	if msg := err.Error(); !strings.Contains(msg, "1 attempts parked: [send 0->1]") {
		t.Errorf("error %q should name the parked attempt", msg)
	}
}

// TestWatchInvariantStepwise drives contended runs one event at a time
// and checks, after every event, the invariant the wake-up rests on:
// each parked attempt watches a resource that is busy, and no parked
// attempt could start (a dry resource check independent of tryStart).
// Dense and lazy route tables, long and short messages, exchanges and
// async sends are all exercised.
func TestWatchInvariantStepwise(t *testing.T) {
	cube := hypercube.MustNew(5)
	torus := mesh.MustNew(6, 6, true)
	cases := []struct {
		name  string
		net   topo.Topology
		bytes int64
		run   string
	}{
		{"cube-dense-S1", topo.NewRouteTable(cube), 4096, "S1"},
		{"cube-lazy-S2", topo.NewRouteTableLazy(cube), 4096, "S2"},
		{"cube-short-S2", topo.NewRouteTable(cube), 64, "S2"},
		{"torus-lazy-AC", topo.NewRouteTableLazy(torus), 2048, "AC"},
		{"torus-async", topo.NewRouteTable(torus), 2048, "AC_async"},
		{"torus-S1", topo.NewRouteTable(torus), 4096, "S1"},
	}
	parkedExchanges := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.net.Nodes()
			mat, err := comm.UniformRandom(n, 8, c.bytes, rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			var progs [][]op
			switch c.run {
			case "S1":
				s, err := sched.RSNL(mat, c.net, rng)
				if err != nil {
					t.Fatal(err)
				}
				progs = CompileS1(s, params())
			case "S2":
				s, err := sched.RSN(mat, rng)
				if err != nil {
					t.Fatal(err)
				}
				progs = CompileS2(s, params())
			case "AC", "AC_async":
				o, err := sched.ACShuffled(mat, rng)
				if err != nil {
					t.Fatal(err)
				}
				if c.run == "AC" {
					progs = CompileAC(o, mat, params())
				} else {
					progs = CompileACAsync(o, mat, params())
				}
			}
			m, err := NewMachine(c.net, params())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.load(progs); err != nil {
				t.Fatal(err)
			}
			steps, maxParked := 0, 0
			for m.eng.Step() {
				steps++
				maxParked = max(maxParked, m.parked)
				parkedExchanges += checkWatchInvariant(t, m, steps)
			}
			if maxParked == 0 {
				t.Fatal("no attempt ever parked: the case exercises nothing")
			}
			for i := range m.nodes {
				if !m.nodes[i].done {
					t.Fatalf("node %d unfinished after %d events", i, steps)
				}
			}
		})
	}
	if parkedExchanges == 0 {
		t.Error("no exchange ever parked: the exchange blockers go unchecked")
	}
}

// checkWatchInvariant verifies the parked-attempt invariant after an
// event, failing the test at the first violation, and returns the
// number of parked exchanges.
func checkWatchInvariant(t *testing.T, m *Machine, step int) (exchanges int) {
	t.Helper()
	chanBusy := func(id int) bool { return m.chanBusy[id>>6]&(uint64(1)<<(uint(id)&63)) != 0 }
	routeFree := func(src, dst int32) bool {
		for _, id := range m.net.RouteIDs(int(src), int(dst), nil) {
			if chanBusy(id) {
				return false
			}
		}
		return true
	}
	parked := 0
	for r, head := range m.watch {
		for ai := head; ai >= 0; ai = m.attempts[ai].next {
			parked++
			a := m.attempts[ai]
			var watched bool
			if r < int(m.nch) {
				watched = chanBusy(r)
			} else {
				watched = m.busy[r-int(m.nch)] != 0
			}
			if !watched {
				t.Fatalf("event %d: attempt %d (%+v) watches free resource %d", step, ai, a, r)
			}
			var startable bool
			if a.exchange {
				exchanges++
				startable = m.busy[a.src] == 0 && m.busy[a.dst] == 0 &&
					routeFree(a.src, a.dst) && routeFree(a.dst, a.src)
			} else {
				startable = (a.bytes <= m.params.ShortMaxBytes || m.busy[a.dst] == 0) &&
					(!a.async || m.busy[a.src]&busyTx == 0) && routeFree(a.src, a.dst)
			}
			if startable {
				t.Fatalf("event %d: parked attempt %d (%+v) could start", step, ai, a)
			}
		}
	}
	if parked != m.parked {
		t.Fatalf("event %d: %d attempts on watch lists, parked count %d", step, parked, m.parked)
	}
	for r := 0; r < int(m.nch); r++ {
		if marked := m.watched[r>>6]&(uint64(1)<<(uint(r)&63)) != 0; marked != (m.watch[r] >= 0) {
			t.Fatalf("event %d: channel %d watched bit %v, watch list head %d", step, r, marked, m.watch[r])
		}
	}
	if len(m.woken) != 0 {
		t.Fatalf("event %d: %d woken attempts left unretried", step, len(m.woken))
	}
	return exchanges
}

// TestBusyChannelIsFirstInRouteOrder checks that the blocker a route
// reports is its first busy channel in route order — on mesh and torus
// runs crossed downward and split by the wraparound, on a dense table,
// and on generated routes — against a walk of RouteIDs, over random
// occupancy. Which busy channel an attempt parks on does not change
// Results (retryPending), so only this test pins the order.
func TestBusyChannelIsFirstInRouteOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, net := range []topo.Topology{
		mesh.MustNew(7, 5, true), mesh.MustNew(5, 3, false), mesh.MustNew(16, 4, true),
		topo.NewRouteTable(hypercube.MustNew(4)), hypercube.MustNew(4),
	} {
		m, err := NewMachine(net, params())
		if err != nil {
			t.Fatal(err)
		}
		n := net.Nodes()
		for fill := 0; fill < 50; fill++ {
			for w := range m.chanBusy {
				m.chanBusy[w] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
			for k := 0; k < 200; k++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				want := int32(-1)
				for _, id := range net.RouteIDs(src, dst, nil) {
					if m.chanBusy[id>>6]&(uint64(1)<<(uint(id)&63)) != 0 {
						want = int32(id)
						break
					}
				}
				if got := m.busyChannel(src, dst); got != want {
					t.Fatalf("%s: busyChannel(%d,%d) = %d, first busy channel in route order %d",
						net.Name(), src, dst, got, want)
				}
			}
		}
	}
}

// TestMachinesShareRouteTableConcurrently is the campaign-worker
// memory model under the race detector: many machines, one dense
// RouteTable. The table must be read-only in the hot path (routeFree/
// claim/release touch only per-machine occupancy words), so parallel
// simulations over the shared table are race-free and bit-identical
// to sequential ones.
func TestMachinesShareRouteTableConcurrently(t *testing.T) {
	cube := hypercube.MustNew(5)
	table := topo.NewRouteTable(cube)
	params := costmodel.DefaultIPSC860()
	mat, err := comm.DRegular(32, 6, 2048, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.RSNL(mat, cube, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}

	ref, err := RunS1(cube, params, s)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	results := make([]Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mach, err := NewMachine(table, params)
			if err != nil {
				errs[w] = err
				return
			}
			// Two runs per worker: the second exercises Reset reuse
			// while siblings are mid-flight on the same table.
			for pass := 0; pass < 2; pass++ {
				res, err := mach.RunS1(s)
				if err != nil {
					errs[w] = err
					return
				}
				results[w] = res
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if results[w] != ref {
			t.Errorf("worker %d over shared table: %+v, sequential %+v", w, results[w], ref)
		}
	}
}
