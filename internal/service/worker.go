package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"unsched/internal/costmodel"
	"unsched/internal/ipsc"
	"unsched/internal/sched"
	"unsched/internal/topo"
)

// errBusy is returned by submit when the queue is full; handlers
// translate it into 429 so load sheds at the door instead of piling
// into unbounded goroutines.
var errBusy = errors.New("service: queue full")

// errClosed is returned by submit after Close.
var errClosed = errors.New("service: shutting down")

// task is one unit of synchronous work. The worker calls run with its
// private simulator state and closes done; the submitting handler
// waits on done and reads whatever run stored. Workers never touch the
// HTTP layer, so an abandoned request (client gone) finishes harmlessly.
type task struct {
	run  func(w *worker)
	done chan struct{}
	// panicked carries a panic recovered while running the task; the
	// submitting handler surfaces it as a 500. Written before done is
	// closed, read only after.
	panicked error
}

// worker owns the reusable per-goroutine simulation and scheduling
// state: one simulator machine per (topology, params) pair and one
// scheduler core per topology it has served, reset and reused across
// requests so the hot path — repeated workloads on the default
// machine — allocates nothing per run beyond program compilation and
// the schedule itself. Cores hold mutable scratch and are private to
// the worker; the route tables they walk are immutable and shared
// daemon-wide through the pool's tableCache, so the O(n^2 * diameter)
// precompute happens once per topology per daemon, not once per
// worker.
type worker struct {
	machines map[machineKey]*ipsc.Machine
	cores    map[string]*sched.Core
	tables   *tableCache
}

// tableCache shares precomputed route tables daemon-wide: across all
// workers of the pool and across campaign runners. Tables are
// immutable after construction, so publishing one pointer serves
// every goroutine; building under the lock serializes cold-start
// misses on the same topology instead of duplicating the n^2-route
// precompute per worker.
type tableCache struct {
	mu     sync.Mutex
	tables map[string]*topo.RouteTable
}

func newTableCache() *tableCache {
	return &tableCache{tables: make(map[string]*topo.RouteTable)}
}

// maxSharedTables bounds daemon-wide retained route tables. Only cube
// and graph tables can be dense, capped by the maxRouteTableHops
// budget (~256 MiB of hops worst case, reachable only by graph:
// shapes; the dim-10 cube keeps 90 MiB with its mask spans, the dim-11
// cube 112 MiB). Lazy tables and mesh/torus tables, which are
// closed-form, store no hops at all. So eight retained tables stay
// bounded even under an adversarial topology mix — and unlike the
// per-worker caches, this bound does not multiply by worker count.
const maxSharedTables = 8

// get returns the daemon-shared route table for net, building it on
// first use. The auto constructor picks the representation:
// closed-form for a mesh or torus (routes are runs of channel ids,
// nothing stored); otherwise dense (precomputed CSR routes, word-mask
// bitset occupancy) when the hop footprint fits the maxRouteTableHops
// budget, and lazy (routes generated on the fly, nothing stored) when
// it would not — which is what lets the service admit the dim-12 cube
// and long rings.
func (tc *tableCache) get(net topo.Topology) *topo.RouteTable {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if rt, ok := tc.tables[net.Name()]; ok {
		return rt
	}
	if len(tc.tables) >= maxSharedTables {
		for k := range tc.tables {
			delete(tc.tables, k)
			break
		}
	}
	rt := topo.NewRouteTableAuto(net, maxRouteTableHops)
	tc.tables[net.Name()] = rt
	return rt
}

type machineKey struct {
	topoName string
	params   string
}

// maxMachinesPerWorker bounds the per-worker machine cache; requests
// name topologies freely, so an adversarial mix could otherwise grow
// it without limit. Machine state is O(n + channels + messages), and
// a warm machine keeps the program, attempt and event arenas its
// largest run grew — a few MB at 1024 nodes — so 4 machines bound a
// worker's retained simulator memory even under a worst-case topology
// mix; real deployments hit one or two topologies and never evict.
const maxMachinesPerWorker = 4

// maxCachedMachineNodes bounds the machines (and scheduler cores) a
// worker retains across requests; larger ones are built per request
// and released with it. Building one is cheap (a 4096-node machine
// allocates under 1 MB), but a cached one keeps its largest run's
// arenas for the worker's lifetime: caching the 4096-node machines
// and cores per worker raised the scale-cold benchmark's
// peak_heap_mib by about 110–150 MiB, with no CPU gain.
const maxCachedMachineNodes = 1 << maxCampaignDim

// machine returns the worker's reusable machine for (net, params),
// building and caching it on first use. Machines are built over the
// daemon-shared route table, so transfers claim and release whole
// routes word-at-a-time — a mesh or torus through its runs of channel
// ids, a dense table through its bitset spans — and fall back to
// on-the-fly routing when the table is lazy.
func (w *worker) machine(net topo.Topology, paramsName string, params costmodel.Params) (*ipsc.Machine, error) {
	if net.Nodes() > maxCachedMachineNodes {
		return ipsc.NewMachine(w.tables.get(net), params)
	}
	key := machineKey{topoName: net.Name(), params: paramsName}
	if m, ok := w.machines[key]; ok {
		return m, nil
	}
	// Evict one arbitrary entry rather than the whole map: a cycling
	// topology mix then rebuilds one machine per request, not all of
	// them.
	if len(w.machines) >= maxMachinesPerWorker {
		for k := range w.machines {
			delete(w.machines, k)
			break
		}
	}
	m, err := ipsc.NewMachine(w.tables.get(net), params)
	if err != nil {
		return nil, err
	}
	w.machines[key] = m
	return m, nil
}

// schedCore returns the worker's reusable scheduler core for net,
// building it over the daemon-shared route table on first use. The
// same eviction bound as the machine cache applies to the per-worker
// core scratch; the heavyweight tables live in the shared cache.
func (w *worker) schedCore(net topo.Topology) *sched.Core {
	if net.Nodes() > maxCachedMachineNodes {
		return sched.NewCoreForTable(w.tables.get(net))
	}
	if c, ok := w.cores[net.Name()]; ok {
		return c
	}
	if len(w.cores) >= maxMachinesPerWorker {
		for k := range w.cores {
			delete(w.cores, k)
			break
		}
	}
	c := sched.NewCoreForTable(w.tables.get(net))
	w.cores[net.Name()] = c
	return c
}

// pool runs tasks on a fixed set of workers fed by a bounded queue.
type pool struct {
	mu     sync.Mutex
	closed bool
	queue  chan *task
	wg     sync.WaitGroup
	depth  atomic.Int64
}

// newPool starts workers goroutines behind a queue of queueLen slots.
// The route-table cache is passed in because it outlives the pool's
// concerns: the server shares it with campaign runners too.
func newPool(workers, queueLen int, shared *tableCache) *pool {
	p := &pool{queue: make(chan *task, queueLen)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w := &worker{
				machines: make(map[machineKey]*ipsc.Machine),
				cores:    make(map[string]*sched.Core),
				tables:   shared,
			}
			for t := range p.queue {
				p.depth.Add(-1)
				runOne(w, t)
			}
		}()
	}
	return p
}

// runOne executes one task, containing any panic to that task: the
// worker survives, done is always closed (so single-flight followers
// are never stranded), and the panic surfaces to the one request that
// triggered it instead of killing the daemon. The machine and core
// maps are dropped because a panic may have left cached state mid-run.
func runOne(w *worker, t *task) {
	defer close(t.done)
	defer func() {
		if r := recover(); r != nil {
			t.panicked = fmt.Errorf("service: panic serving request: %v", r)
			w.machines = make(map[machineKey]*ipsc.Machine)
			w.cores = make(map[string]*sched.Core)
		}
	}()
	t.run(w)
}

// submit enqueues t without blocking. A full queue returns errBusy —
// the backpressure signal — and a closed pool returns errClosed.
func (p *pool) submit(t *task) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errClosed
	}
	select {
	case p.queue <- t:
		p.depth.Add(1)
		return nil
	default:
		return errBusy
	}
}

// close drains the queue and stops the workers; queued tasks still
// run, new submissions fail with errClosed.
func (p *pool) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
