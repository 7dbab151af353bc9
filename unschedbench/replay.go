package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/ipsc"
	"unsched/internal/quality"
	"unsched/internal/sched"
	"unsched/internal/service"
	"unsched/internal/stats"
	"unsched/internal/topo"
	"unsched/internal/workload"
)

// The replay rebuilds every served result by calling the layers' public
// functions the way the daemon does, with a span around each call. Its
// results double as the output check: each must equal the served bytes.

// maxDenseHops and maxCachedNodes mirror the daemon's route-table budget
// and its per-worker machine/core cache bound.
const (
	maxDenseHops   = 1 << 26
	maxCachedNodes = 1024
)

// replayer holds what the daemon shares between workers: one route
// table per topology.
type replayer struct {
	tables map[string]*topo.RouteTable
}

// newReplayer builds the route tables of the plan's topologies, timing
// each under the setup pseudo-op.
func newReplayer(topos []string, rec *recorder) (*replayer, error) {
	r := &replayer{tables: make(map[string]*topo.RouteTable)}
	rec.setOp(-1)
	for _, spec := range topos {
		net, err := buildNet(spec)
		if err != nil {
			return nil, err
		}
		rec.begin("topo.route_table")
		rt := topo.NewRouteTableAuto(net, maxDenseHops)
		rec.end()
		if rt.Lazy() {
			rec.count("topo.lazy_tables", 1)
		}
		r.tables[net.Name()] = rt
	}
	return r, nil
}

func buildNet(spec string) (topo.Topology, error) {
	sp, err := topo.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return sp.Build()
}

// replayWorker is one replay goroutine's private state, like a daemon
// worker's: scheduler cores and simulator machines per topology, cached
// up to the daemon's node bound.
type replayWorker struct {
	r        *replayer
	rec      *recorder // nil for the untraced replay
	cores    map[string]*sched.Core
	machines map[string]*ipsc.Machine
}

func (r *replayer) worker(rec *recorder) *replayWorker {
	return &replayWorker{r: r, rec: rec, cores: make(map[string]*sched.Core), machines: make(map[string]*ipsc.Machine)}
}

func (w *replayWorker) table(net topo.Topology) (*topo.RouteTable, error) {
	rt, ok := w.r.tables[net.Name()]
	if !ok {
		return nil, fmt.Errorf("no route table for %s", net.Name())
	}
	return rt, nil
}

func (w *replayWorker) core(net topo.Topology) (*sched.Core, error) {
	if c, ok := w.cores[net.Name()]; ok {
		return c, nil
	}
	rt, err := w.table(net)
	if err != nil {
		return nil, err
	}
	c := sched.NewCoreForTable(rt)
	if net.Nodes() <= maxCachedNodes {
		w.cores[net.Name()] = c
	}
	return c, nil
}

func (w *replayWorker) machine(net topo.Topology) (*ipsc.Machine, error) {
	if m, ok := w.machines[net.Name()]; ok {
		return m, nil
	}
	rt, err := w.table(net)
	if err != nil {
		return nil, err
	}
	m, err := ipsc.NewMachine(rt, costmodel.DefaultIPSC860())
	if err != nil {
		return nil, err
	}
	if net.Nodes() <= maxCachedNodes {
		w.machines[net.Name()] = m
	}
	return m, nil
}

// warm builds the cached cores and machines, as the daemon's warm-up
// requests do for its workers.
func (w *replayWorker) warm(topos []string) error {
	for _, spec := range topos {
		net, err := buildNet(spec)
		if err != nil {
			return err
		}
		if net.Nodes() > maxCachedNodes {
			continue
		}
		if _, err := w.core(net); err != nil {
			return err
		}
		if _, err := w.machine(net); err != nil {
			return err
		}
	}
	return nil
}

// decodeStrict decodes a request body as the daemon does.
func decodeStrict(body [][]byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(bytes.Join(body, nil)))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// resolvedSchedule is a decoded schedule request.
type resolvedSchedule struct {
	net       topo.Topology
	spec      workload.Spec
	matrix    *comm.Matrix // shipped matrix
	algorithm string       // concrete, after auto resolution
}

// resolveSchedule replays the request path of POST /v1/schedule up to
// the cache probe: decode, matrix build and hash, auto resolution.
func (w *replayWorker) resolveSchedule(body [][]byte) (*resolvedSchedule, error) {
	w.rec.begin("service.decode")
	var req service.ScheduleRequest
	err := decodeStrict(body, &req)
	var rs resolvedSchedule
	if err == nil {
		rs.net, err = buildNet(req.Topology.Spec)
	}
	if err == nil && req.Workload != "" {
		if rs.spec, err = workload.ParseSpec(req.Workload); err == nil {
			err = rs.spec.ValidateFor(rs.net.Nodes())
		}
	}
	w.rec.end()
	if err != nil {
		return nil, err
	}
	if req.Matrix != nil {
		w.rec.begin("comm.matrix_build")
		rs.matrix, err = buildMatrix(req.Matrix)
		w.rec.end()
		if err != nil {
			return nil, err
		}
		w.rec.begin("comm.hash")
		_ = rs.matrix.ContentHash()
		w.rec.end()
		w.rec.count("comm.messages", float64(len(req.Matrix.Messages)))
	}
	rs.algorithm = req.Algorithm
	if rs.algorithm == "auto" {
		w.rec.begin("quality.pick")
		var f sched.Features
		if rs.matrix != nil {
			f = sched.MeasureFeatures(rs.matrix)
		} else {
			n := rs.net.Nodes()
			f = sched.Features{Nodes: n, Density: rs.spec.DensityHint(n), SizeCV: rs.spec.SizeCVHint()}
		}
		rs.algorithm = (*quality.Model)(nil).Pick(rs.net.Name(), f)[0]
		w.rec.end()
		w.rec.count("quality.picks", 1)
	}
	return &rs, nil
}

// computeSchedule replays the daemon's schedule computation for a
// resolved request with the effective seed, returning the canonical
// result document.
func (w *replayWorker) computeSchedule(rs *resolvedSchedule, seed int64) (*service.ScheduleResult, []byte, error) {
	m := rs.matrix
	if m == nil {
		w.rec.begin("workload.build")
		var err error
		m, err = rs.spec.Build(rs.net.Nodes(), stats.NewSource(seed).StreamKeyed(rs.spec.Key()...))
		w.rec.end()
		if err != nil {
			return nil, nil, err
		}
	}
	res := &service.ScheduleResult{Chosen: rs.algorithm, Topology: rs.net.Name(), Seed: seed}
	w.rec.begin("sched.schedule")
	sc, err := w.schedule(m, rs, seed, res)
	w.rec.end()
	if err != nil {
		return nil, nil, err
	}
	if sc != nil {
		w.rec.count("sched.schedules", 1)
		w.rec.count("sched.phases", float64(len(sc.Phases)))
	}
	w.rec.begin("service.encode")
	if sc != nil {
		res.Schedule = wireSchedule(sc)
	}
	if rs.matrix == nil {
		res.Workload = rs.spec.String()
		res.Matrix = service.NewWireMatrix(m)
	}
	raw, err := json.Marshal(res)
	w.rec.end()
	if rs.matrix == nil {
		w.rec.count("comm.messages", float64(len(res.Matrix.Messages)))
	}
	return res, raw, err
}

func (w *replayWorker) schedule(m *comm.Matrix, rs *resolvedSchedule, seed int64, res *service.ScheduleResult) (*sched.Schedule, error) {
	if rs.algorithm == "AC" {
		res.Schedule = &service.WireSchedule{Algorithm: "AC", N: m.N()}
		return nil, m.Validate()
	}
	core, err := w.core(rs.net)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var sc *sched.Schedule
	switch rs.algorithm {
	case "LP":
		sc, err = core.LP(m)
	case "RS_N":
		sc, err = core.RSN(m, rng)
	case "RS_NL":
		sc, err = core.RSNL(m, rng)
	default:
		return nil, fmt.Errorf("replay: algorithm %q not in any workload", rs.algorithm)
	}
	if err != nil {
		return nil, err
	}
	res.LinkFree = core.ValidateLinkFree(sc) == nil
	return sc, nil
}

// simulate replays POST /v1/simulate of a simulate request body.
func (w *replayWorker) simulate(body [][]byte) ([]byte, error) {
	w.rec.begin("service.decode")
	var req service.SimulateRequest
	err := decodeStrict(body, &req)
	var (
		net topo.Topology
		sc  *sched.Schedule
	)
	isAC := err == nil && req.Schedule != nil && req.Schedule.Algorithm == "AC" && len(req.Schedule.Phases) == 0
	if err == nil && !isAC {
		sc, err = scheduleFromWire(req.Schedule)
	}
	if err == nil {
		net, err = buildNet(req.Topology.Spec)
	}
	w.rec.end()
	if err != nil {
		return nil, err
	}
	var m *comm.Matrix
	if isAC {
		w.rec.begin("comm.matrix_build")
		m, err = buildMatrix(req.Matrix)
		w.rec.end()
		if err != nil {
			return nil, err
		}
		w.rec.begin("comm.hash")
		_ = m.ContentHash()
		w.rec.end()
		w.rec.count("comm.messages", float64(len(req.Matrix.Messages)))
	}
	var (
		protocol string
		result   ipsc.Result
		order    *sched.ACOrder
	)
	if isAC {
		w.rec.begin("sched.schedule")
		order, err = sched.AC(m)
		w.rec.end()
		if err != nil {
			return nil, err
		}
	}
	w.rec.begin("ipsc.simulate")
	mach, err := w.machine(net)
	if err == nil {
		switch {
		case isAC:
			protocol = "AC"
			result, err = mach.RunAC(order, m)
		case sc.Algorithm == "LP":
			protocol = "LP"
			result, err = mach.RunLP(sc)
		case sc.Algorithm == "RS_NL":
			protocol = "S1"
			result, err = mach.RunS1(sc)
		default:
			protocol = "S2"
			result, err = mach.RunS2(sc)
		}
	}
	w.rec.end()
	if err != nil {
		return nil, err
	}
	w.rec.count("ipsc.simulations", 1)
	w.rec.count("ipsc.transfers", float64(result.Transfers))
	w.rec.count("ipsc.sim_resource_wait_us", result.ResourceWaitUS)
	w.rec.begin("service.encode")
	raw, err := json.Marshal(&service.SimulateResult{
		Topology:       net.Name(),
		Protocol:       protocol,
		MakespanUS:     result.MakespanUS,
		MakespanMS:     result.MakespanUS / 1000,
		Transfers:      result.Transfers,
		Exchanges:      result.Exchanges,
		ResourceWaitUS: result.ResourceWaitUS,
	})
	w.rec.end()
	return raw, err
}

// encodeEnvelope replays the JSON response envelope around a result.
func (w *replayWorker) encodeEnvelope(key string, cached bool, raw []byte) ([]byte, error) {
	w.rec.begin("service.encode")
	defer w.rec.end()
	return json.Marshal(service.Envelope{Key: key, Cached: cached, Result: raw})
}

// buildMatrix is the daemon's wire-to-dense matrix conversion with its
// validation.
func buildMatrix(wm *service.WireMatrix) (*comm.Matrix, error) {
	if wm == nil {
		return nil, errors.New("missing matrix")
	}
	m, err := comm.New(wm.N)
	if err != nil {
		return nil, err
	}
	for k, msg := range wm.Messages {
		src, dst, b := msg[0], msg[1], msg[2]
		if src < 0 || src >= int64(wm.N) || dst < 0 || dst >= int64(wm.N) || src == dst || b <= 0 {
			return nil, fmt.Errorf("message %d: bad entry %v", k, msg)
		}
		if m.At(int(src), int(dst)) != 0 {
			return nil, fmt.Errorf("message %d: duplicate entry", k)
		}
		m.Set(int(src), int(dst), b)
	}
	return m, nil
}

// wireSchedule converts a schedule to its wire form.
func wireSchedule(s *sched.Schedule) *service.WireSchedule {
	out := &service.WireSchedule{Algorithm: s.Algorithm, N: s.N, Ops: s.Ops, Phases: make([]service.WirePhase, len(s.Phases))}
	for k, p := range s.Phases {
		phase := make(service.WirePhase, 0, p.Messages())
		for i, j := range p.Send {
			if j >= 0 {
				phase = append(phase, [3]int64{int64(i), int64(j), p.Bytes[i]})
			}
		}
		out.Phases[k] = phase
	}
	return out
}

// scheduleFromWire rebuilds the phase form of a wire schedule.
func scheduleFromWire(ws *service.WireSchedule) (*sched.Schedule, error) {
	if ws == nil || ws.N < 2 {
		return nil, errors.New("missing schedule")
	}
	s := &sched.Schedule{Algorithm: ws.Algorithm, N: ws.N, Ops: ws.Ops}
	for k, pw := range ws.Phases {
		p := sched.NewPhase(ws.N)
		for _, msg := range pw {
			src, dst := msg[0], msg[1]
			if src < 0 || src >= int64(ws.N) || dst < 0 || dst >= int64(ws.N) || p.Send[src] != -1 {
				return nil, fmt.Errorf("phase %d: bad entry %v", k, msg)
			}
			p.Send[src], p.Bytes[src] = int(dst), msg[2]
		}
		s.Phases = append(s.Phases, p)
	}
	return s, nil
}

// --- checking ----------------------------------------------------------

// check is the replay of one run: the per-op verdicts and, when traced,
// the spans and counts.
type check struct {
	failed   []bool
	firstErr error
	spans    []span
	counts   map[string]float64
	wall     time.Duration
}

// replayRun replays every issued op with workers goroutines and checks
// its responses. traced records spans; the untraced replay runs the
// same code with a nil recorder.
func replayRun(p *plan, outs []outcome, ex *exemplars, workers int, traced bool) (*check, error) {
	epoch := time.Now()
	var setupRec *recorder
	if traced {
		setupRec = newRecorder(epoch)
	}
	r, err := newReplayer(p.topos, setupRec)
	if err != nil {
		return nil, err
	}
	c := &check{failed: make([]bool, len(p.ops)), counts: make(map[string]float64)}
	var mu sync.Mutex
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		c.failed[i] = true
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("op %d (%s): %w", i, p.ops[i].class, err)
		}
	}

	// Hot keys: canonical results once per key, untraced (the daemon
	// computed them at warm-up), then one verdict per response variant.
	canon, err := canonicalKeys(r.worker(nil), p.keys)
	if err != nil {
		return nil, err
	}
	variantOK := make(map[variant]error)
	for v, body := range ex.bodies {
		variantOK[v] = checkVariant(v, body, p.keys, canon)
	}

	recs := make([]*recorder, workers)
	ws := make([]*replayWorker, workers)
	for g := range ws {
		if traced {
			recs[g] = newRecorder(epoch)
		}
		ws[g] = r.worker(recs[g])
		if err := ws[g].warm(p.topos); err != nil {
			return nil, err
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := range ws {
		w, rec := ws[g], recs[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.ops) {
					return
				}
				if !outs[i].issued {
					continue
				}
				rec.setOp(i)
				rec.begin("op")
				err := replayOp(w, &p.ops[i], &outs[i], p.keys, canon, ex, variantOK)
				rec.end()
				if err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	c.wall = time.Since(epoch)
	for _, rec := range append(recs, setupRec) {
		if rec == nil {
			continue
		}
		c.spans = mergeSpans(c.spans, rec.spans)
		for k, v := range rec.counts {
			c.counts[k] += v
		}
	}
	for i := range outs {
		if outs[i].issued && outs[i].err != nil {
			fail(i, outs[i].err)
		}
	}
	return c, nil
}

// canonicalKeys replays the result of every hot key once.
func canonicalKeys(w *replayWorker, keys []hotKey) ([][]byte, error) {
	canon := make([][]byte, len(keys))
	for i, k := range keys {
		rs, err := w.resolveSchedule(k.body)
		if err != nil {
			return nil, err
		}
		if _, canon[i], err = w.computeSchedule(rs, k.seed); err != nil {
			return nil, err
		}
	}
	return canon, nil
}

// checkVariant verifies one kept hot-mix body against its key's
// canonical result.
func checkVariant(v variant, body []byte, keys []hotKey, canon [][]byte) error {
	var (
		key    string
		cached bool
		got    []byte
	)
	switch v.mode {
	case modeRevalidate:
		if len(body) != 0 {
			return fmt.Errorf("304 with a %d-byte body", len(body))
		}
		return nil
	case modeJSON:
		var env service.Envelope
		if err := json.Unmarshal(body, &env); err != nil {
			return err
		}
		key, cached, got = env.Key, env.Cached, env.Result
	default:
		br, err := service.DecodeBinaryResponse(body)
		if err != nil {
			return err
		}
		if br.Schedule == nil {
			return errors.New("binary response carries no schedule result")
		}
		// The binary form does not tell an empty phase list (AC) from an
		// absent one; JSON writes the canonical null.
		if s := br.Schedule.Schedule; s != nil && len(s.Phases) == 0 {
			s.Phases = nil
		}
		key, cached = br.Key, br.Cached
		if got, err = json.Marshal(br.Schedule); err != nil {
			return err
		}
	}
	switch {
	case key != keys[v.key].key:
		return fmt.Errorf("key %s, want %s", key, keys[v.key].key)
	case !cached:
		return errors.New("repeat request not served from the cache")
	case !bytes.Equal(got, canon[v.key]):
		return fmt.Errorf("result differs from the replay (%d vs %d bytes)", len(got), len(canon[v.key]))
	}
	return nil
}

// replayOp replays one op's daemon-side work and checks its responses.
func replayOp(w *replayWorker, o *op, out *outcome, keys []hotKey, canon [][]byte, ex *exemplars, variantOK map[variant]error) error {
	if out.err != nil {
		return nil // already failed; nothing served to check
	}
	if o.key >= 0 {
		return replayHit(w, o, out, keys, canon, ex, variantOK)
	}
	st := out.steps[0]
	rs, err := w.resolveSchedule(o.body)
	if err != nil {
		return err
	}
	res, raw, err := w.computeSchedule(rs, st.res.Seed)
	if err != nil {
		return err
	}
	if _, err := w.encodeEnvelope(st.key, st.cached, raw); err != nil {
		return err
	}
	if err := matchStep(st, raw); err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	f := scheduleFields{Chosen: res.Chosen}
	if f.Schedule, err = json.Marshal(res.Schedule); err == nil && res.Matrix != nil {
		f.Matrix, err = json.Marshal(res.Matrix)
	}
	if err != nil {
		return err
	}
	sim := out.steps[1]
	raw, err = w.simulate(simulateBody(o.sched.topo, &f))
	if err != nil {
		return err
	}
	if _, err := w.encodeEnvelope(sim.key, sim.cached, raw); err != nil {
		return err
	}
	if err := matchStep(sim, raw); err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	return nil
}

// matchStep checks a cold op's response against its replay.
func matchStep(st step, raw []byte) error {
	if sha256.Sum256(raw) != st.resultHash {
		return errors.New("served result differs from the replay")
	}
	if st.cached {
		return errors.New("cold request served from the cache")
	}
	return nil
}

// replayHit replays the request path of a repeat request — everything
// the daemon does before and after its cache probe — and checks the
// body against the variant's verified exemplar.
func replayHit(w *replayWorker, o *op, out *outcome, keys []hotKey, canon [][]byte, ex *exemplars, variantOK map[variant]error) error {
	k := &keys[o.key]
	if _, err := w.resolveSchedule(k.body); err != nil {
		return err
	}
	if o.mode == modeJSON {
		if _, err := w.encodeEnvelope(k.key, true, canon[o.key]); err != nil {
			return err
		}
	}
	v := variant{o.key, o.mode}
	if err := variantOK[v]; err != nil {
		return err
	}
	if sha256.Sum256(ex.bodies[v]) != out.steps[0].bodyHash {
		return errors.New("body differs from the first response of the same request")
	}
	return nil
}
