// Package ipsc simulates the Intel iPSC/860: i860 compute nodes on a
// circuit-switched hypercube with deterministic e-cube routing. It is
// the machine substitute for the paper's 64-node CalTech system (see
// DESIGN.md §2) and reproduces the communication behaviour the paper's
// §2.2 observations describe:
//
//  1. each node supports one send and one receive at a time, and a
//     non-pairwise send + receive at the same node serialize;
//  2. a pairwise-synchronized exchange transfers both directions
//     concurrently;
//  3. circuits passing through a node do not disturb that node, and
//     crossing circuits do not disturb each other — contention exists
//     only when two circuits want the same directed channel;
//  4. long messages are sent only after the receiver indicates
//     readiness (the S1 ready signal / 0-byte message).
//
// The simulator executes per-node op programs compiled from a schedule
// (see program.go) under a deterministic discrete-event engine, and
// reports the makespan — the maximum node finish time — exactly as the
// paper measures "the maximum time spent by any processor" per run.
//
// Simplification (documented substitution): circuit acquisition is
// atomic — a transfer starts when its channels and its receiver are
// simultaneously available, rather than incrementally holding partial
// paths. This keeps the model deadlock-free while preserving the
// serialization that link contention causes.
//
// # Hot-path representation
//
// The simulator is the cost center of every campaign cell and service
// request, so its run loop is built to generate no garbage when a
// Machine is reused:
//
//   - events are flat typed records (a kind tag plus two int32
//     operands) dispatched through one des.Engine handler, stored
//     inline in the engine's reusable heap array — no closure per
//     event;
//   - transfer attempts live in a machine-owned arena ([]attempt)
//     addressed by index, so an arena index is also the attempt's
//     FIFO position;
//   - a blocked attempt is parked on one busy resource that blocks it
//     (a directed channel or a node's busy byte), in an intrusive list
//     threaded through the arena; a release wakes only the attempts
//     parked on what it frees, instead of re-trying every blocked
//     attempt (see retryPending for why this matches the full FIFO
//     re-scan exactly);
//   - barrier arrival counts and waiter lists are flat slices indexed
//     by barrier id (phase number), recycled across runs;
//   - S1 handshake state is per message, not per node pair: compilation
//     numbers every S1 message with a slot, and the ready signals and
//     arrivals live in two slot-indexed slices sized from the loaded
//     programs, so a Machine holds O(n + channels + messages) state;
//   - channel occupancy is a packed topo.Bitset. On a mesh or torus a
//     route is at most four runs of consecutive channel ids
//     (mesh.RouteRuns), so the free/claim/release walks test and set
//     whole runs a word at a time; over a dense topo.RouteTable they
//     go word-at-a-time through the table's precomputed masks;
//   - per-run programs compile into a machine-owned [][]op arena whose
//     inner capacities persist across runs, using machine-owned
//     compile scratch (Run* methods only; the package-level Compile*
//     functions still allocate fresh programs and scratch).
//
// After the first run on a given workload shape, Reset restores every
// arena without freeing, so a reused Machine simulates allocation-free.
package ipsc

import (
	"fmt"
	"slices"
	"sort"

	"unsched/internal/costmodel"
	"unsched/internal/des"
	"unsched/internal/mesh"
	"unsched/internal/topo"
)

// Flat event kinds dispatched through the des.Engine handler. The
// operands a and b are event-specific.
const (
	// evAdvance resumes node a's program.
	evAdvance int32 = iota
	// evReady delivers the ready signal of S1 message slot b to its
	// sender a.
	evReady
	// evBarrier releases barrier a, owned by (last-arriving) node b.
	evBarrier
	// evXferDone completes the unidirectional transfer attempts[a].
	evXferDone
	// evExchDone completes the pairwise exchange attempts[a].
	evExchDone
)

// Machine is a simulator instance. Create one with NewMachine and
// drive it through its RunS1/RunS2/RunLP/RunAC methods, which Reset
// and reuse its state so one Machine serves an arbitrarily long run
// sequence without reallocating. A Machine is not safe for concurrent
// use; create one per goroutine.
//
// A mesh or torus, bare or under any route table, routes through its
// closed-form runs of channel ids. Passing a dense *topo.RouteTable as
// the topology (a RouteTable is itself a Topology) switches
// channel-occupancy checks to the table's word-at-a-time bitset masks;
// any other topology routes on the fly.
type Machine struct {
	net    topo.Topology
	routes *topo.RouteTable // non-nil: dense or closed-form table (topo.TableOf)
	grid   *mesh.Mesh       // non-nil: routes are closed-form runs
	params costmodel.Params
	eng    *des.Engine
	nodes  []node
	// chanBusy is the packed channel-occupancy bitset: bit i marks
	// directed channel i held by an active circuit.
	chanBusy topo.Bitset
	// busy packs each node's circuit occupancy into one byte —
	// busyTx for an active outgoing transfer, busyRx for an incoming
	// one. tryStart probes these for random peers on every retry, so
	// keeping all nodes' flags in a few cache lines matters more than
	// keeping them next to the rest of the node state.
	busy     []uint8
	routeBuf []int
	// attempts is the per-run arena of transfer/exchange attempts.
	attempts []attempt
	// watch[r] heads the list, linked through attempt.next, of the
	// attempts parked on resource r: directed channel r below nch,
	// node r-nch's busy byte from nch on. -1 ends a list. parked counts
	// the attempts on all lists; woken collects those drained by the
	// releases of the current event for retryPending.
	// watched marks the channels whose watch list is not empty, so a
	// release on the run path finds the attempts to wake a word at a
	// time.
	watch   []int32
	watched topo.Bitset
	nch     int32
	parked  int
	woken   []int32
	// barrier state, indexed by barrier id (= phase number): arrival
	// counts and blocked-node lists, grown on demand and recycled.
	barrierCount   []int32
	barrierWaiters [][]int32
	// progs is the compile arena the Run* methods build per-node
	// programs into; inner slices keep their capacity across runs.
	// recvScratch is the compile-time per-node scratch: receive counts
	// for S2 and AC; op counts, then each phase's receive side, for
	// S1. slotScratch holds the slots of one S1 phase's messages,
	// indexed by sender.
	progs       [][]op
	recvScratch []int
	slotScratch []int32
	// S1 handshake state, indexed by message slot: ready marks a
	// message whose receiver's ready signal has reached the sender,
	// arrived one that has fully arrived. load sizes both from the
	// programs; they keep their capacity across runs.
	ready   []bool
	arrived []bool
	// stats
	transfers int
	exchanges int
	waitedUS  float64 // total time attempts spent blocked on resources
	maxEvents int64
	runs      [4]mesh.Run // RouteRuns buffer: an XY route has at most four
}

// busy byte bits: an active outgoing circuit and an active incoming
// one. A pairwise exchange sets both bits on both partners.
const (
	busyTx = 1 << iota
	busyRx
)

type node struct {
	id      int
	program []op
	pc      int
	// blocked marks a node waiting for an external event (signal,
	// rendezvous, arrival, or resources). Its engine is idle, so it
	// can absorb incoming circuits.
	blocked  bool
	received int // total messages absorbed (for opWaitAll)
	expected int
	done     bool
	finishUS float64
	// rendezvous state for opExchange
	atExchange bool
	// outstanding counts initiated-but-incomplete asynchronous sends
	// (opSendAsync); opWaitSent blocks while it is nonzero.
	outstanding int
}

// attempt is a transfer or exchange, parked on a busy resource while
// it is blocked and retried when that resource is released. Attempts
// live in the Machine's arena and are addressed by index — in the
// watch lists and in the completion events that reference them.
type attempt struct {
	exchange bool
	async    bool  // opSendAsync: completion decrements outstanding instead of advancing pc
	src, dst int32 // for exchange: src < dst pair
	next     int32 // next attempt parked on the same resource, or -1
	slot     int32 // the S1 message slot it carries, or noSlot
	bytes    int64
	backSize int64 // exchange reverse direction
	queuedAt float64
}

// Result summarizes one simulated run.
type Result struct {
	// MakespanUS is the maximum node finish time in microseconds —
	// the paper's per-run communication cost.
	MakespanUS float64
	// Transfers is the number of unidirectional circuits carried;
	// Exchanges the number of pairwise bidirectional exchanges (each
	// moving two messages).
	Transfers int
	Exchanges int
	// ResourceWaitUS accumulates time attempts spent queued for
	// channels or receivers — a direct measure of contention.
	ResourceWaitUS float64
}

// NewMachine returns a simulator for one run on the given cube with
// the given timing parameters.
func NewMachine(net topo.Topology, params costmodel.Params) (*Machine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := net.Nodes()
	nch := net.NumChannels()
	m := &Machine{
		net:       net,
		params:    params,
		eng:       des.New(),
		routes:    topo.TableOf(net),
		watch:     make([]int32, nch+n),
		nch:       int32(nch),
		maxEvents: int64(n) * 1_000_000,
	}
	// The busy and watched bitsets share one allocation.
	words := topo.BitsetWords(nch)
	bits := make(topo.Bitset, 2*words)
	m.chanBusy, m.watched = bits[:words:words], bits[words:]
	clearWatch(m.watch)
	if m.routes != nil {
		m.grid = m.routes.Grid()
	}
	m.eng.SetHandler(m.handle)
	// Per-node state is two contiguous O(n) allocations, which Reset
	// clears without freeing anything. The campaign runner keeps one
	// Machine per worker and reuses it for every run.
	m.nodes = make([]node, n)
	m.busy = make([]uint8, n)
	for i := range m.nodes {
		m.nodes[i].id = i
	}
	return m, nil
}

// clearWatch empties every watch list.
func clearWatch(watch []int32) {
	for i := range watch {
		watch[i] = -1
	}
}

// SetMaxEvents overrides the simulated-event bound (default
// nodes * 1e6). Exceeding the bound makes the run fail with an error
// wrapping *des.LimitError. Values <= 0 are ignored.
func (m *Machine) SetMaxEvents(v int64) {
	if v > 0 {
		m.maxEvents = v
	}
}

// Reset returns the machine to its initial state while keeping every
// backing allocation: the event heap, the channel-occupancy bitset,
// the route buffer, the attempt arena and its watch lists, the barrier
// arenas, and the per-node records (load resizes and clears the slot
// state). After Reset the machine is indistinguishable from a freshly
// built one, so a single Machine can drive an arbitrarily long
// sequence of runs allocation-free.
func (m *Machine) Reset() {
	m.eng.Reset()
	clear(m.chanBusy)
	m.routeBuf = m.routeBuf[:0]
	m.attempts = m.attempts[:0]
	clearWatch(m.watch)
	clear(m.watched)
	m.parked = 0
	m.woken = m.woken[:0]
	for i := range m.barrierCount {
		m.barrierCount[i] = 0
		m.barrierWaiters[i] = m.barrierWaiters[i][:0]
	}
	clear(m.busy)
	m.transfers = 0
	m.exchanges = 0
	m.waitedUS = 0
	for i := range m.nodes {
		nd := &m.nodes[i]
		nd.program = nil
		nd.pc = 0
		nd.blocked = false
		nd.received = 0
		nd.expected = 0
		nd.done = false
		nd.finishUS = 0
		nd.atExchange = false
		nd.outstanding = 0
	}
}

// run loads the per-node programs and processes events to completion.
func (m *Machine) run(programs [][]op) (Result, error) {
	if err := m.load(programs); err != nil {
		return Result{}, err
	}
	if _, err := m.eng.Run(m.maxEvents); err != nil {
		return Result{}, fmt.Errorf("ipsc: %w", err)
	}

	makespan := 0.0
	for i := range m.nodes {
		nd := &m.nodes[i]
		if !nd.done {
			return Result{}, m.deadlockError()
		}
		if nd.finishUS > makespan {
			makespan = nd.finishUS
		}
	}
	return Result{
		MakespanUS:     makespan,
		Transfers:      m.transfers,
		Exchanges:      m.exchanges,
		ResourceWaitUS: m.waitedUS,
	}, nil
}

// load installs the per-node programs, tallies the arrivals each node
// expects, sizes the slot state, and schedules every node's first
// advance at time 0.
func (m *Machine) load(programs [][]op) error {
	if len(programs) != len(m.nodes) {
		return fmt.Errorf("ipsc: %d programs for %d nodes", len(programs), len(m.nodes))
	}
	// One pass over all programs tallies the expected arrivals of every
	// node at once; the per-node scan this replaces cost O(n · totalOps)
	// and dominated short-run setup.
	slots := 0
	for src, prog := range programs {
		for _, o := range prog {
			switch o.kind {
			case opPostRecv, opWaitRecv:
				slots = max(slots, int(o.slot)+1)
			case opSendReady:
				slots = max(slots, int(o.slot)+1)
				m.nodes[o.peer].expected++
			case opSendFire, opSendAsync:
				m.nodes[o.peer].expected++
			case opExchange:
				// Each endpoint's opExchange carries its outgoing
				// bytes; tally the halves directed at the peer.
				if o.bytes > 0 && int(o.peer) != src {
					m.nodes[o.peer].expected++
				}
			}
		}
	}
	m.ready = slices.Grow(m.ready[:0], slots)[:slots]
	m.arrived = slices.Grow(m.arrived[:0], slots)[:slots]
	clear(m.ready)
	clear(m.arrived)
	for i := range m.nodes {
		m.nodes[i].program = programs[i]
	}
	for i := range m.nodes {
		m.eng.AtEvent(0, evAdvance, int32(i), 0)
	}
	return nil
}

func (m *Machine) deadlockError() error {
	var stuck []string
	for i := range m.nodes {
		nd := &m.nodes[i]
		if !nd.done {
			desc := "end"
			if nd.pc < len(nd.program) {
				desc = nd.program[nd.pc].String()
			}
			stuck = append(stuck, fmt.Sprintf("P%d@%d:%s", nd.id, nd.pc, desc))
			if len(stuck) >= 8 {
				stuck = append(stuck, "...")
				break
			}
		}
	}
	// A circuit always has its completion event queued, so a run that
	// drains its events leaves no attempt parked unless a release
	// failed to wake it; name any such attempt.
	if m.parked > 0 {
		return fmt.Errorf("ipsc: simulation deadlocked at t=%.1fµs: %v; %d attempts parked: %v",
			m.eng.Now(), stuck, m.parked, m.pendingSummary())
	}
	return fmt.Errorf("ipsc: simulation deadlocked at t=%.1fµs: %v", m.eng.Now(), stuck)
}

// handle dispatches one flat event from the engine. It is the only
// event sink; every scheduled event is one of the ev* kinds above.
func (m *Machine) handle(kind, a, b int32) {
	switch kind {
	case evAdvance:
		m.advance(&m.nodes[a])
	case evReady:
		sender := &m.nodes[a]
		m.ready[b] = true
		if sender.blocked && sender.pc < len(sender.program) {
			so := sender.program[sender.pc]
			if so.kind == opSendReady && so.slot == b {
				m.advance(sender)
			}
		}
	case evBarrier:
		m.releaseBarrier(int(a), int(b))
	case evXferDone:
		m.finishTransfer(a)
	case evExchDone:
		m.finishExchange(a)
	default:
		panic(fmt.Sprintf("ipsc: unknown event kind %d", kind))
	}
}

// advance executes ops of nd until it blocks or finishes. It must be
// called with the node unblocked and its engine free.
func (m *Machine) advance(nd *node) {
	nd.blocked = false
	for {
		if nd.pc >= len(nd.program) {
			if !nd.done {
				nd.done = true
				nd.finishUS = m.eng.Now()
			}
			return
		}
		o := nd.program[nd.pc]
		switch o.kind {
		case opDelay:
			nd.pc++
			if o.cost > 0 {
				m.eng.AfterEvent(o.cost, evAdvance, int32(nd.id), 0)
				return
			}

		case opPostRecv:
			// Post the buffer and fire the ready signal to the sender;
			// costs CPU locally, then the signal flies. The signal event
			// is scheduled first so a zero-flight tie still delivers the
			// signal before the local resume.
			src := int(o.peer)
			cost := m.params.PostOverheadUS
			flight := m.params.SignalTime(m.hops(nd.id, src))
			m.eng.AfterEvent(cost+flight, evReady, int32(src), o.slot)
			nd.pc++
			m.eng.AfterEvent(cost, evAdvance, int32(nd.id), 0)
			return

		case opSendReady:
			if !m.ready[o.slot] {
				nd.blocked = true
				return
			}
			m.tryOrQueue(m.addAttempt(attempt{
				src: int32(nd.id), dst: int32(o.peer), slot: o.slot, bytes: o.bytes,
				queuedAt: m.eng.Now(),
			}))
			return

		case opSendFire:
			m.tryOrQueue(m.addAttempt(attempt{
				src: int32(nd.id), dst: int32(o.peer), slot: noSlot, bytes: o.bytes,
				queuedAt: m.eng.Now(),
			}))
			return

		case opSendAsync:
			nd.outstanding++
			m.tryOrQueue(m.addAttempt(attempt{
				async: true, src: int32(nd.id), dst: int32(o.peer), slot: noSlot, bytes: o.bytes,
				queuedAt: m.eng.Now(),
			}))
			nd.pc++
			continue

		case opWaitSent:
			if nd.outstanding == 0 {
				nd.pc++
				continue
			}
			nd.blocked = true
			return

		case opBarrier:
			id := int(o.peer)
			m.growBarriers(id)
			m.barrierCount[id]++
			if int(m.barrierCount[id]) < len(m.nodes) {
				m.barrierWaiters[id] = append(m.barrierWaiters[id], int32(nd.id))
				nd.blocked = true
				return
			}
			// Last arrival: everyone pays the dissemination sweep —
			// log2(n) rounds of signal exchanges — then proceeds.
			rounds := 0
			for x := 1; x < len(m.nodes); x *= 2 {
				rounds++
			}
			cost := float64(rounds) * (m.params.SyncOverheadUS + m.params.SignalTime(1))
			m.eng.AfterEvent(cost, evBarrier, int32(id), int32(nd.id))
			return

		case opWaitRecv:
			if m.arrived[o.slot] {
				nd.pc++
				continue
			}
			nd.blocked = true
			return

		case opWaitAll:
			if nd.received >= nd.expected {
				nd.pc++
				continue
			}
			nd.blocked = true
			return

		case opExchange:
			peer := &m.nodes[o.peer]
			nd.atExchange = true
			if !peer.atExchange || peer.pc >= len(peer.program) {
				nd.blocked = true
				return
			}
			po := peer.program[peer.pc]
			if po.kind != opExchange || int(po.peer) != nd.id {
				nd.blocked = true
				return
			}
			// Rendezvous complete: attempt the exchange once, owned by
			// the lower id to avoid double-queueing.
			lo, hi := nd.id, int(o.peer)
			loBytes, hiBytes := o.bytes, po.bytes
			if lo > hi {
				lo, hi = hi, lo
				loBytes, hiBytes = hiBytes, loBytes
			}
			nd.blocked = true
			m.tryOrQueue(m.addAttempt(attempt{
				exchange: true, src: int32(lo), dst: int32(hi), slot: noSlot,
				bytes: loBytes, backSize: hiBytes, queuedAt: m.eng.Now(),
			}))
			return

		default:
			panic(fmt.Sprintf("ipsc: unknown op kind %d", o.kind))
		}
	}
}

// growBarriers ensures the barrier arenas cover id.
func (m *Machine) growBarriers(id int) {
	for len(m.barrierCount) <= id {
		m.barrierCount = append(m.barrierCount, 0)
		m.barrierWaiters = append(m.barrierWaiters, nil)
	}
}

// releaseBarrier fires barrier id: the owner (last arrival) and every
// waiter resume, in arrival order. The waiter list is recycled.
func (m *Machine) releaseBarrier(id, owner int) {
	me := &m.nodes[owner]
	me.pc++
	m.advance(me)
	for _, w := range m.barrierWaiters[id] {
		wn := &m.nodes[w]
		wn.pc++
		m.advance(wn)
	}
	m.barrierWaiters[id] = m.barrierWaiters[id][:0]
}

// addAttempt appends a to the arena and returns its index.
func (m *Machine) addAttempt(a attempt) int32 {
	m.attempts = append(m.attempts, a)
	return int32(len(m.attempts) - 1)
}

// tryOrQueue starts the attempt if its resources are free, otherwise
// parks it on a resource that blocks it.
func (m *Machine) tryOrQueue(ai int32) {
	if r := m.tryStart(ai); r >= 0 {
		m.park(ai, r)
	}
}

// park links attempt ai into the watch list of resource r.
func (m *Machine) park(ai, r int32) {
	m.attempts[ai].next = m.watch[r]
	m.watch[r] = ai
	m.parked++
	if r < m.nch {
		m.watched[r>>6] |= uint64(1) << (uint(r) & 63)
	}
}

// wake empties the watch list of resource r into the woken set.
func (m *Machine) wake(r int32) {
	for ai := m.watch[r]; ai >= 0; ai = m.attempts[ai].next {
		m.woken = append(m.woken, ai)
		m.parked--
	}
	m.watch[r] = -1
	if r < m.nch {
		m.watched[r>>6] &^= uint64(1) << (uint(r) & 63)
	}
}

// retryPending re-tries the attempts woken by the current event's
// releases in FIFO order; one that fails again is parked on whatever
// blocks it now. Every event that releases resources ends by calling
// it.
//
// This starts exactly the attempts that re-trying every blocked
// attempt in FIFO order would start, in the same order:
//
//  1. Between two releases, resources are only ever claimed: only the
//     finish handlers release, and each ends with this call.
//  2. A parked attempt can start only when all of its resources are
//     free.
//  3. So the resource it is parked on, busy when it was parked, stays
//     busy until that resource is released — which wakes it. (A node
//     counts as released when any bit of its busy byte clears.)
//  4. Therefore every attempt the full pass would re-try but this one
//     skips is parked on a resource that is still busy, and fails in
//     the full pass too, changing nothing.
//  5. The woken attempts are visited in ascending arena index, which is
//     FIFO order because every attempt is tried the moment it is
//     created; so they meet the same claims as in the full pass, in
//     the same relative order.
//
// Hence every claim, every event time and ResourceWaitUS are the same
// as under the full pass, at the cost of only the woken re-tries.
func (m *Machine) retryPending() {
	if len(m.woken) == 0 {
		return
	}
	slices.Sort(m.woken)
	for _, ai := range m.woken {
		if r := m.tryStart(ai); r >= 0 {
			m.park(ai, r)
		}
	}
	m.woken = m.woken[:0]
}

// busyChannel returns the first busy channel of the deterministic
// route src->dst, or -1 if the whole route is free. On a mesh or torus
// each run is searched a word at a time, from its low end when the
// route crosses it upward and from its high end when downward, so the
// channel found is the first busy one in route order. Over a dense
// route table the free test is word-at-a-time through the table's
// masks and only a blocked route is walked hop by hop; otherwise the
// route is generated and tested bit by bit.
func (m *Machine) busyChannel(src, dst int) int32 {
	if m.grid != nil {
		for _, r := range m.grid.RouteRuns(src, dst, m.runs[:0]) {
			c := -1
			if r.First <= r.Last {
				c = m.chanBusy.FirstIn(r.First, r.Last)
			} else {
				c = m.chanBusy.LastIn(r.Last, r.First)
			}
			if c >= 0 {
				return int32(c)
			}
		}
		return -1
	}
	if m.routes != nil {
		if !m.routes.RouteFree(m.chanBusy, src, dst) {
			for _, id := range m.routes.Route(src, dst) {
				if m.chanBusy[id>>6]&(uint64(1)<<(uint(id)&63)) != 0 {
					return id
				}
			}
		}
		return -1
	}
	m.routeBuf = m.net.RouteIDs(src, dst, m.routeBuf[:0])
	for _, id := range m.routeBuf {
		if m.chanBusy[id>>6]&(uint64(1)<<(uint(id)&63)) != 0 {
			return int32(id)
		}
	}
	return -1
}

// claimRoute marks every channel of the route src->dst busy.
func (m *Machine) claimRoute(src, dst int) {
	if m.routes != nil {
		m.routes.ClaimRoute(m.chanBusy, src, dst)
		return
	}
	m.routeBuf = m.net.RouteIDs(src, dst, m.routeBuf[:0])
	for _, id := range m.routeBuf {
		m.chanBusy[id>>6] |= uint64(1) << (uint(id) & 63)
	}
}

// releaseRoute frees every channel of the route src->dst and wakes the
// attempts parked on them. On a mesh or torus each run is cleared a
// word at a time and only its watched channels are visited; the wake
// order does not matter, because retryPending sorts the woken set.
func (m *Machine) releaseRoute(src, dst int) {
	if m.grid != nil {
		for _, r := range m.grid.RouteRuns(src, dst, m.runs[:0]) {
			lo, hi := r.Span()
			m.chanBusy.ClearIn(lo, hi)
			for c := m.watched.FirstIn(lo, hi); c >= 0; c = m.watched.FirstIn(c+1, hi) {
				m.wake(int32(c))
			}
		}
		return
	}
	if m.routes != nil {
		for _, id := range m.routes.Route(src, dst) {
			m.releaseChannel(id)
		}
		return
	}
	m.routeBuf = m.net.RouteIDs(src, dst, m.routeBuf[:0])
	for _, id := range m.routeBuf {
		m.releaseChannel(int32(id))
	}
}

func (m *Machine) releaseChannel(id int32) {
	m.chanBusy[id>>6] &^= uint64(1) << (uint(id) & 63)
	if m.watch[id] >= 0 {
		m.wake(id)
	}
}

// releaseNode clears bits from node v's busy byte and wakes the
// attempts parked on the node.
func (m *Machine) releaseNode(v int32, bits uint8) {
	m.busy[v] &^= bits
	m.wake(m.nch + v)
}

// hops returns the route length, bypassing the Topology interface
// dispatch when a table is attached: Hops is called on every transfer
// start and every receive posting, and the table answers with two
// adjacent int32 loads (dense) or closed-form arithmetic (mesh).
func (m *Machine) hops(src, dst int) int {
	if m.routes != nil {
		return m.routes.Hops(src, dst)
	}
	return m.net.Hops(src, dst)
}

// tryStart claims the attempt's resources and schedules its completion
// event if they are all free, returning -1. Otherwise it claims
// nothing and returns a busy resource that blocks the attempt (a
// watch-list index), for the caller to park it on.
func (m *Machine) tryStart(ai int32) int32 {
	// Unlike the finish handlers, tryStart never appends to the
	// attempt arena, so reading through the pointer is safe and skips
	// a struct copy on every retry.
	a := &m.attempts[ai]
	if a.exchange {
		return m.tryStartExchange(ai)
	}
	// Short messages (the NX short protocol, <= 100 B) travel
	// fire-and-forget into the receiver's system buffer: they need the
	// circuit but not the receiver's engine. Long messages engage the
	// receiver: no two incoming at once, and a non-pairwise send and
	// receive at one node serialize (§2.2 observation 1) — a blocked
	// or idle receiver absorbs fine.
	short := a.bytes <= m.params.ShortMaxBytes
	if !short && m.busy[a.dst] != 0 {
		return m.nch + a.dst
	}
	// A node drives at most one outgoing circuit at a time; async
	// attempts from the same node queue behind the active one.
	if a.async && m.busy[a.src]&busyTx != 0 {
		return m.nch + a.src
	}
	if c := m.busyChannel(int(a.src), int(a.dst)); c >= 0 {
		return c
	}
	hops := m.hops(int(a.src), int(a.dst))
	dur := m.params.TransferTime(a.bytes, hops)
	m.claimRoute(int(a.src), int(a.dst))
	m.busy[a.src] |= busyTx
	if !short {
		m.busy[a.dst] |= busyRx
	}
	m.waitedUS += m.eng.Now() - a.queuedAt
	m.transfers++
	m.eng.AfterEvent(dur, evXferDone, ai, 0)
	return -1
}

// finishTransfer completes the unidirectional transfer attempts[ai]:
// release the circuit, deliver the message, resume the sender (or
// settle its async bookkeeping), wake a waiting receiver, and retry
// the attempts the release woke.
func (m *Machine) finishTransfer(ai int32) {
	a := m.attempts[ai]
	src, dst := &m.nodes[a.src], &m.nodes[a.dst]
	short := a.bytes <= m.params.ShortMaxBytes
	m.releaseRoute(int(a.src), int(a.dst))
	m.releaseNode(a.src, busyTx)
	if !short {
		m.releaseNode(a.dst, busyRx)
	}
	if a.slot != noSlot {
		m.arrived[a.slot] = true
	}
	dst.received++
	if a.async {
		src.outstanding--
		if src.blocked && src.pc < len(src.program) &&
			src.program[src.pc].kind == opWaitSent && src.outstanding == 0 {
			m.advance(src)
		}
	} else {
		// Sender finished its blocking send op.
		src.pc++
		m.advance(src)
	}
	// Receiver may be waiting on this arrival.
	if dst.blocked && dst.pc < len(dst.program) {
		o := dst.program[dst.pc]
		if (o.kind == opWaitRecv && o.slot == a.slot) || o.kind == opWaitAll {
			m.advance(dst)
		}
	}
	m.retryPending()
}

// tryStartExchange is tryStart for a pairwise exchange. Blockers are
// reported in a fixed order: src node, dst node, then the first busy
// channel forward and in reverse.
func (m *Machine) tryStartExchange(ai int32) int32 {
	a := &m.attempts[ai]
	// Both nodes are blocked at their exchange op; their engines are
	// dedicated. Other circuits may still occupy the routes.
	if m.busy[a.src] != 0 {
		return m.nch + a.src
	}
	if m.busy[a.dst] != 0 {
		return m.nch + a.dst
	}
	if c := m.busyChannel(int(a.src), int(a.dst)); c >= 0 {
		return c
	}
	if c := m.busyChannel(int(a.dst), int(a.src)); c >= 0 {
		return c
	}
	hops := m.hops(int(a.src), int(a.dst))
	fwd, rev := 0.0, 0.0
	if a.bytes > 0 {
		fwd = m.params.TransferTime(a.bytes, hops)
	}
	if a.backSize > 0 {
		rev = m.params.TransferTime(a.backSize, hops)
	}
	// The pairwise synchronization itself is a 0-byte message exchange
	// (§2.2 observation 4: "the exchange of a dummy message"), so even
	// a data-less sync phase — LP walks all n-1 of them — costs the
	// signal flight plus software overhead.
	dur := m.params.SyncOverheadUS + m.params.SignalTime(hops) + maxf(fwd, rev)
	m.claimRoute(int(a.src), int(a.dst))
	m.claimRoute(int(a.dst), int(a.src))
	m.busy[a.src] = busyTx | busyRx
	m.busy[a.dst] = busyTx | busyRx
	m.waitedUS += m.eng.Now() - a.queuedAt
	m.exchanges++
	m.eng.AfterEvent(dur, evExchDone, ai, 0)
	return -1
}

// finishExchange completes the pairwise exchange attempts[ai]: release
// both circuits, deliver both directions, resume both partners, and
// retry the attempts the release woke.
func (m *Machine) finishExchange(ai int32) {
	a := m.attempts[ai]
	lo, hi := &m.nodes[a.src], &m.nodes[a.dst]
	m.releaseRoute(int(a.src), int(a.dst))
	m.releaseRoute(int(a.dst), int(a.src))
	m.releaseNode(a.src, busyTx|busyRx)
	m.releaseNode(a.dst, busyTx|busyRx)
	lo.atExchange = false
	hi.atExchange = false
	if a.bytes > 0 {
		hi.received++
	}
	if a.backSize > 0 {
		lo.received++
	}
	lo.pc++
	hi.pc++
	m.advance(lo)
	m.advance(hi)
	m.retryPending()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// pendingSummary renders the parked attempts sorted, for tests that
// inspect blocked state and for the deadlock diagnostic.
func (m *Machine) pendingSummary() []string {
	out := make([]string, 0, m.parked)
	for _, head := range m.watch {
		for ai := head; ai >= 0; ai = m.attempts[ai].next {
			a := m.attempts[ai]
			kind := "send"
			if a.exchange {
				kind = "xchg"
			}
			out = append(out, fmt.Sprintf("%s %d->%d", kind, a.src, a.dst))
		}
	}
	sort.Strings(out)
	return out
}
