package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"unsched/internal/service"
	"unsched/internal/stats"
	"unsched/internal/workload"
)

// wireMode is how a request asks for its response.
type wireMode int

const (
	modeJSON       wireMode = iota // Accept: application/json
	modeBinaryGzip                 // Accept: binary envelope, Accept-Encoding: gzip
	modeRevalidate                 // JSON with If-None-Match: the current ETag (answered 304)
)

var modeNames = [...]string{"json", "bin+gzip", "304"}

// A job is what one schedule request asks for.
type job struct {
	topo      string
	workload  string // workload spec; empty when the body ships a matrix
	algorithm string
	reqSeed   int64
}

// An op is one client-visible unit of work. A cold op (key < 0) is a
// schedule request followed by POST /v1/simulate of the schedule it
// returned, both computed rather than served from the cache. A hot-mix
// op (key >= 0) is one repeat request of a pre-warmed key.
type op struct {
	class string
	path  string
	body  [][]byte // pre-encoded chunks, sent back to back
	mode  wireMode
	etag  string // If-None-Match value for modeRevalidate
	sched *job   // cold ops: the schedule job
	key   int    // hot-mix key index; -1 for cold ops
}

// A hotKey is one pre-warmed schedule request of the hot-mix key set.
type hotKey struct {
	class string
	body  [][]byte
	// Filled at warm-up from the first response.
	key  string
	seed int64 // effective seed
}

// A plan is the seeded request list of one run: a pure function of
// (workload, seed, window).
type plan struct {
	ops    []op
	passes [][]int         // closed loop: op indexes, pass by pass
	whole  bool            // closed loop: run every op of a started pass
	dues   []time.Duration // open loop: due offset of each op
	keys   []hotKey        // hot-mix key set
	topos  []string        // topologies the workload touches
	digest int             // ops covered by the response digest
}

// The paper's Table-1 grid on the 64-node iPSC/860.
var (
	paperTopo       = "cube:6"
	paperDensities  = []int{4, 8, 16, 32, 48}
	paperSizes      = []int64{256, 4096, 16384, 65536}
	paperAlgorithms = []string{"AC", "LP", "RS_N", "RS_NL", "auto"}
)

type paperCell struct {
	workload, algorithm string
}

func paperGrid() []paperCell {
	var cells []paperCell
	for _, d := range paperDensities {
		for _, b := range paperSizes {
			for _, a := range paperAlgorithms {
				cells = append(cells, paperCell{fmt.Sprintf("uniform:%d:%d", d, b), a})
			}
		}
	}
	return cells
}

func scheduleBody(j *job) [][]byte {
	req := service.ScheduleRequest{
		Workload:  j.workload,
		Algorithm: j.algorithm,
		Topology:  &service.WireTopology{Spec: j.topo},
		Seed:      j.reqSeed,
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct always marshals
	}
	return [][]byte{b}
}

// matrixBody ships a pre-encoded matrix: the large chunk is shared by
// every request that ships it.
func matrixBody(matrixJSON []byte, j *job) [][]byte {
	tail := fmt.Sprintf(`,"algorithm":%q,"topology":{"spec":%q},"seed":%d}`, j.algorithm, j.topo, j.reqSeed)
	return [][]byte{[]byte(`{"matrix":`), matrixJSON, []byte(tail)}
}

// genMatrix builds a seeded uniform d-regular matrix in JSON wire form.
func genMatrix(seed int64, n, d int, bytes int64) ([]byte, error) {
	m, err := workload.UniformSpec(d, bytes).Build(n, stats.NewSource(seed).StreamKeyed(int64(n), int64(d), bytes))
	if err != nil {
		return nil, err
	}
	return json.Marshal(service.NewWireMatrix(m))
}

func coldOp(class string, j *job, body [][]byte) op {
	return op{class: class, path: "/v1/schedule", body: body, sched: j, key: -1}
}

// genPaperCold cycles through seeded permutations of the Table-1 grid,
// each op with a fresh request seed, so every op misses the cache.
func genPaperCold(seed int64, window time.Duration) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	grid := paperGrid()
	p := &plan{topos: []string{paperTopo}, digest: len(grid)}
	budget := int(window.Seconds()*1000) + len(grid)
	var pass []int
	for len(p.ops) < budget {
		for _, c := range rng.Perm(len(grid)) {
			j := &job{topo: paperTopo, workload: grid[c].workload, algorithm: grid[c].algorithm, reqSeed: rng.Int63()}
			pass = append(pass, len(p.ops))
			p.ops = append(p.ops, coldOp(j.algorithm, j, scheduleBody(j)))
		}
	}
	p.passes = [][]int{pass}
	return p, nil
}

// scaleJob is one entry of the scale-cold pass.
type scaleJob struct {
	topo, workload, algorithm string
	shipMatrix                bool // ship the d=8 matrix instead of naming a workload
}

// scalePass is run in this order each pass: the 4096-node torus job
// first, so it overlaps the rest of the pass on the other client. The
// class counts place the median (rank 8 of every 16 ops) inside the
// torus:32x32 RS_NL jobs and the tail (ten samples beyond it) inside the
// cube:12 RS_NL jobs, for two to four passes alike.
var scalePass = []scaleJob{
	{"torus:64x64", "uniform:8:4096", "RS_NL", false},
	{"cube:12", "", "RS_N", true},
	{"cube:12", "", "RS_NL", true},
	{"cube:12", "", "RS_NL", true},
	{"cube:12", "", "RS_NL", true},
	{"cube:12", "", "RS_NL", true},
	{"torus:32x32", "uniform:8:4096", "RS_N", false},
	{"torus:32x32", "uniform:8:4096", "RS_NL", false},
	{"torus:32x32", "uniform:8:4096", "RS_NL", false},
	{"torus:32x32", "uniform:8:4096", "RS_NL", false},
	{"cube:10", "uniform:8:4096", "RS_N", false},
	{"cube:10", "uniform:8:4096", "RS_N", false},
	{"cube:10", "uniform:8:4096", "RS_NL", false},
	{"cube:10", "uniform:8:4096", "RS_NL", false},
	{"cube:10", "uniform:8:4096", "auto", false},
	{"cube:10", "uniform:8:4096", "auto", false},
}

// scalePassSeconds is a lower bound on one pass's wall time, used only
// to size how many passes to generate.
const scalePassSeconds = 2

func genScaleCold(seed int64, window time.Duration) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	raw, err := genMatrix(rng.Int63(), 4096, 8, 4096)
	if err != nil {
		return nil, err
	}
	p := &plan{topos: []string{"torus:64x64", "cube:12", "torus:32x32", "cube:10"}, whole: true, digest: len(scalePass)}
	passes := int(window.Seconds()/scalePassSeconds) + 2
	for k := 0; k < passes; k++ {
		var pass []int
		for _, s := range scalePass {
			j := &job{topo: s.topo, workload: s.workload, algorithm: s.algorithm, reqSeed: rng.Int63()}
			class := s.topo + " " + s.workload + " " + s.algorithm
			body := scheduleBody(j)
			if s.shipMatrix {
				class = s.topo + " matrix:d8 " + s.algorithm
				body = matrixBody(raw, j)
			}
			pass = append(pass, len(p.ops))
			p.ops = append(p.ops, coldOp(class, j, body))
		}
		p.passes = append(p.passes, pass)
	}
	return p, nil
}

// Hot-mix traffic. hotRate is the open-loop arrival rate, about a fifth of
// the closed-loop saturation rate of this traffic with two clients (see
// README.md for how it was measured and why not a half).
const (
	hotRate     = 450.0 // arrivals per second
	hotNewShare = 0.02  // share of arrivals that are new keys (cold chains)
	hotZipfS    = 1.1
	hotZipfV    = 8.0
)

// hotModeShares is the encoding mix of repeat arrivals.
var hotModeShares = [...]float64{modeJSON: 0.4, modeBinaryGzip: 0.4, modeRevalidate: 0.2}

// hotLargeRanks are the fixed popularity ranks of the cube:10 keys, so
// every seed sends them the same share of traffic.
var hotLargeRanks = []int{5, 17, 40, 90}

func genHotMix(seed int64, window time.Duration) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{topos: []string{paperTopo, "cube:10"}, digest: 1000}

	// Key set: every cube:6 grid cell, plus cube:10 keys whose answers
	// are large: a 1024-node schedule with its generated matrix. The
	// cube:10 keys take fixed popularity ranks, so they draw the same
	// share of traffic under every seed; the cube:6 keys fill the other
	// ranks in seeded order.
	var small, large []int
	for _, c := range paperGrid() {
		j := &job{topo: paperTopo, workload: c.workload, algorithm: c.algorithm, reqSeed: rng.Int63()}
		small = append(small, len(p.keys))
		p.keys = append(p.keys, hotKey{class: "cube:6", body: scheduleBody(j)})
	}
	for _, alg := range []string{"RS_NL", "RS_N", "RS_NL", "RS_N"} {
		j := &job{topo: "cube:10", workload: "uniform:8:4096", algorithm: alg, reqSeed: rng.Int63()}
		large = append(large, len(p.keys))
		p.keys = append(p.keys, hotKey{class: "cube:10", body: scheduleBody(j)})
	}
	ranked := make([]int, 0, len(p.keys))
	perm := rng.Perm(len(small))
	for r := 0; r < len(p.keys); r++ {
		if len(large) > 0 && r == hotLargeRanks[len(hotLargeRanks)-len(large)] {
			ranked, large = append(ranked, large[0]), large[1:]
		} else {
			ranked, perm = append(ranked, small[perm[0]]), perm[1:]
		}
	}

	zipf := rand.NewZipf(rng, hotZipfS, hotZipfV, uint64(len(ranked)-1))
	grid := paperGrid()
	var due time.Duration
	for {
		due += time.Duration(rng.ExpFloat64() / hotRate * float64(time.Second))
		if due >= window {
			break
		}
		p.dues = append(p.dues, due)
		if rng.Float64() < hotNewShare {
			c := grid[rng.Intn(len(grid))]
			j := &job{topo: paperTopo, workload: c.workload, algorithm: c.algorithm, reqSeed: rng.Int63()}
			p.ops = append(p.ops, coldOp("new "+c.algorithm, j, scheduleBody(j)))
			continue
		}
		k := ranked[zipf.Uint64()]
		mode := pickMode(rng.Float64())
		p.ops = append(p.ops, op{class: p.keys[k].class + " " + modeNames[mode], mode: mode, key: k})
	}
	return p, nil
}

func pickMode(u float64) wireMode {
	for m, share := range hotModeShares {
		if u < share {
			return wireMode(m)
		}
		u -= share
	}
	return modeJSON
}

// fillHotOps points the key-set ops at their keys' bodies and, once
// warm-up has produced them, their ETags.
func fillHotOps(p *plan) {
	for i := range p.ops {
		o := &p.ops[i]
		if o.key < 0 {
			continue
		}
		k := &p.keys[o.key]
		o.path, o.body = "/v1/schedule", k.body
		o.etag = `"` + k.key + `"`
	}
}

// simulateBody asks for the simulation of a schedule result, splicing
// its raw schedule (and, for AC, its matrix) into the request.
func simulateBody(topoSpec string, res *scheduleFields) [][]byte {
	body := [][]byte{[]byte(`{"schedule":`), res.Schedule}
	if res.Chosen == "AC" {
		body = append(body, []byte(`,"matrix":`), res.Matrix)
	}
	return append(body, []byte(`,"topology":{"spec":`+strconv.Quote(topoSpec)+`}}`))
}

// scheduleFields is the part of a schedule result a client reads to
// chain the simulate request.
type scheduleFields struct {
	Chosen   string          `json:"chosen"`
	Seed     int64           `json:"seed"`
	Schedule json.RawMessage `json:"schedule"`
	Matrix   json.RawMessage `json:"matrix"`
}
