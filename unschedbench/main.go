// Command unschedbench is the unschedd benchmark: it starts an
// in-process unschedd (default options) on a loopback listener, drives
// it over HTTP with at most two client goroutines and connections from
// a request list generated from --seed, and checks every served result
// against a replay that calls each layer's public functions.
//
//	unschedbench --workload paper-cold|scale-cold|hot-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of the untraced HTTP
// run; with --trace 1 it also replays the run's ops with spans around
// every layer call and reports per-layer metrics. The last line of
// standard output is one JSON object; everything before it is a
// human-readable report. See README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unsched/internal/topo"
)

// clients is the number of client goroutines and connections: the
// container's processor count.
const clients = 2

// Each run sets the daemon up at least minSetups times, and more until
// minSetupTime of wall time is spent (at most maxSetups): set-up at paper
// scale takes milliseconds, and its median needs many samples to hold
// still. setup_s is the median CPU time of a set-up; the last daemon
// serves the run.
const (
	minSetups    = 5
	maxSetups    = 100
	minSetupTime = time.Second
)

// workloads generate each workload's plan from a seed and the window.
var workloads = map[string]func(seed int64, window time.Duration) (*plan, error){
	"paper-cold": genPaperCold,
	"scale-cold": genScaleCold,
	"hot-mix":    genHotMix,
}

func main() {
	name := flag.String("workload", "", "paper-cold, scale-cold or hot-mix")
	seed := flag.Int64("seed", 1, "seed of the generated request list")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 replays the run with spans and reports per-layer metrics")
	flag.Parse()
	gen, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: unschedbench --workload paper-cold|scale-cold|hot-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(*name, gen, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "unschedbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, gen func(int64, time.Duration) (*plan, error), seed int64, window time.Duration, traced bool) error {
	p, err := gen(seed, window)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	open := p.dues != nil
	client := newClient(clients)
	defer client.CloseIdleConnections()

	var (
		d                  *daemon
		setups, setupWalls []float64
		spent              time.Duration
	)
	for k := 0; ; k++ {
		runtime.GC() // the previous daemon's garbage is not this set-up's cost
		t, c := time.Now(), cpuTime()
		if d, err = startDaemon(); err != nil {
			return err
		}
		if err = warm(d, client, p, k == 0); err != nil {
			d.stop()
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, (cpuTime() - c).Seconds())
		setupWalls = append(setupWalls, time.Since(t).Seconds())
		spent += time.Since(t)
		if k+1 >= maxSetups || (k+1 >= minSetups && spent >= minSetupTime) {
			break
		}
		d.stop()
		client.CloseIdleConnections()
	}
	defer d.stop()
	fillHotOps(p)

	// The measured window: untraced HTTP traffic only.
	outs := make([]outcome, len(p.ops))
	tm := make([]timing, len(p.ops))
	ex := &exemplars{bodies: make(map[variant][]byte)}
	exec := func(i int) { outs[i] = runOp(client, d.base, &p.ops[i], ex) }
	before, err := scrape(client, d.base)
	if err != nil {
		return err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := startHeapSampler(10 * time.Millisecond)
	cpu0 := cpuTime()
	t0 := time.Now()
	if open {
		openLoop(t0, p.dues, clients, tm, exec)
	} else {
		closedLoop(t0, window, clients, p.passes, p.whole, tm, exec)
	}
	elapsed := time.Since(t0)
	cpu := cpuTime() - cpu0
	peak, heapSamples := heap.finish()
	runtime.ReadMemStats(&m1)
	after, err := scrape(client, d.base)
	if err != nil {
		return err
	}

	// Output check (and, when traced, the per-layer replay).
	chk, err := replayRun(p, outs, ex, clients, false)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	var traceChk, again *check
	if traced {
		if traceChk, err = replayRun(p, outs, ex, clients, true); err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		// A second untraced replay after the traced one: tracing
		// overhead is measured against the mean of the replays on
		// either side, so warm-up over the three does not read as
		// tracing cost.
		if again, err = replayRun(p, outs, ex, clients, false); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}

	var lat, lateMs []float64
	byClass := make(map[string][]float64)
	attempted, failed := 0, 0
	for i := range outs {
		if !outs[i].issued {
			continue
		}
		attempted++
		if chk.failed[i] || (traced && (traceChk.failed[i] || again.failed[i])) {
			failed++
		}
		lat = append(lat, ms(tm[i].latency()))
		lateMs = append(lateMs, ms(tm[i].late()))
		byClass[p.ops[i].class] = append(byClass[p.ops[i].class], lat[len(lat)-1])
	}
	if attempted == 0 {
		return errNoOps
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}

	fmt.Printf("unschedbench workload=%s seed=%d window=%s clients=%d trace=%v\n", name, seed, window, clients, traced)
	if open {
		fmt.Printf("open loop at %.0f arrivals/s (%d arrivals due in the window)\n", hotRate, len(p.dues))
	} else {
		fmt.Printf("closed loop, %d clients, %d passes generated\n", clients, len(p.passes))
	}
	sort.Float64s(setups)
	tailV, tailP, ok := tail(lat)
	if !ok {
		tailV, tailP = sortedCopy(lat)[len(lat)-1], 100
	}
	e2e := map[string]metric{
		"setup_s":          {setups[len(setups)/2], "s"},
		"cpu_ms_per_op":    {ms(cpu) / float64(attempted), "ms"},
		"alloc_mib_per_op": {float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(attempted), "MiB"},
		"peak_heap_mib":    {float64(peak) / (1 << 20), "MiB"},
	}
	fmt.Println("end-to-end metrics (in BENCHMARK.json):")
	fmt.Printf("  %-22s %12.6f s     median CPU time of %d set-ups, %.6f to %.6f (wall: median %.6f s)\n", "setup_s", e2e["setup_s"].Value, len(setups), setups[0], setups[len(setups)-1], median(setupWalls))
	fmt.Printf("  %-22s %12.4f ms    process CPU time over the window / %d ops\n", "cpu_ms_per_op", e2e["cpu_ms_per_op"].Value, attempted)
	fmt.Printf("  %-22s %12.4f MiB   TotalAlloc delta over %d ops\n", "alloc_mib_per_op", e2e["alloc_mib_per_op"].Value, attempted)
	fmt.Printf("  %-22s %12.4f MiB   max HeapInuse of %d samples\n", "peak_heap_mib", e2e["peak_heap_mib"].Value, heapSamples)
	fmt.Printf("  %-22s %12.4f       %d failed of %d attempted\n", "error_rate", float64(failed)/float64(attempted), failed, attempted)
	fmt.Println("wall-clock metrics (reported, not in BENCHMARK.json: they follow the host's speed):")
	fmt.Printf("  %-22s %12.4f 1/s   %d ops in %.3f s, %.2f of %d processors busy\n", "throughput_ops_per_s", float64(attempted)/elapsed.Seconds(), attempted, elapsed.Seconds(), cpu.Seconds()/elapsed.Seconds(), runtime.NumCPU())
	fmt.Printf("  %-22s %12.4f ms    n=%d\n", "latency_p50_ms", median(lat), len(lat))
	fmt.Printf("  %-22s %12.4f ms    p%.2f, n=%d, %.0f samples beyond\n", "latency_tail_ms", tailV, tailP, len(lat), float64(len(lat))*(1-tailP/100))
	fmt.Println("  latency by op class (ms):")
	cls := make([]string, 0, len(byClass))
	for k := range byClass {
		cls = append(cls, k)
	}
	sort.Strings(cls)
	for _, k := range cls {
		fmt.Printf("    %-34.34s n=%-6d p50 %10.3f  max %10.3f\n", k, len(byClass[k]), median(byClass[k]), sortedCopy(byClass[k])[len(byClass[k])-1])
	}
	if chk.firstErr != nil {
		fmt.Printf("  output check: FAILED: %v\n", chk.firstErr)
	} else {
		fmt.Printf("  output check: every served result equals its replay (%d ops)\n", attempted)
	}
	fmt.Printf("  response digest: %s\n", digest(p, outs))

	if !traced {
		res.Metrics = e2e
	} else {
		res.Metrics = perLayer(p, outs, tm, traceChk, [2]time.Duration{chk.wall, again.wall}, before, after, lateMs)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// digest hashes the decoded response bodies of the plan's first ops in
// op order: identical for the same seed on the same code.
func digest(p *plan, outs []outcome) string {
	h := sha256.New()
	n := min(p.digest, len(outs))
	for i := 0; i < n; i++ {
		if !outs[i].issued {
			return fmt.Sprintf("incomplete (op %d of the first %d not issued)", i, n)
		}
		for _, st := range outs[i].steps {
			h.Write(st.bodyHash[:])
		}
	}
	return fmt.Sprintf("%s (first %d ops)", hex.EncodeToString(h.Sum(nil))[:32], n)
}

// warm brings a fresh daemon to its serving state: warm-up chains on
// each warm topology (route tables, per-worker cores and machines),
// and for hot-mix the whole key set in both cached encodings. The first
// set-up records the hot keys; later ones must reproduce them.
func warm(d *daemon, c *http.Client, p *plan, first bool) error {
	var ops []op
	for _, t := range p.topos {
		if sp, err := topo.ParseSpec(t); err != nil || sp.Nodes() > maxCachedNodes {
			continue // the daemon keeps no per-worker state for these
		}
		for i, alg := range []string{"RS_NL", "RS_N", "RS_NL", "RS_N"} {
			j := &job{topo: t, workload: "uniform:1:256", algorithm: alg, reqSeed: -1 - int64(i)}
			ops = append(ops, coldOp("warm", j, scheduleBody(j)))
		}
	}
	err := parallel(len(ops), func(i int) error { return runOp(c, d.base, &ops[i], nil).err })
	if err != nil || len(p.keys) == 0 {
		return err
	}
	// Every key as JSON (computed and cached), then as binary (rendered
	// from the cached JSON and cached too).
	return parallel(len(p.keys), func(i int) error {
		k := &p.keys[i]
		status, body, err := post(c, d.base, "/v1/schedule", k.body, modeJSON, "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s key: status %d: %.200s", k.class, status, body)
		}
		var st step
		if err := parseEnvelope(body, &st, true); err != nil {
			return err
		}
		switch {
		case first:
			k.key, k.seed = st.key, st.res.Seed
		case k.key != st.key:
			return fmt.Errorf("set-up answered %s key %s, an earlier set-up %s", k.class, st.key, k.key)
		}
		status, body, err = post(c, d.base, "/v1/schedule", k.body, modeBinaryGzip, "")
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s key, binary: status %d: %.200s", k.class, status, body)
		}
		return err
	})
}

// parallel calls fn(0..n-1) from the benchmark's client goroutines and
// returns the first error.
func parallel(n int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
		next  atomic.Int64
		wg    sync.WaitGroup
	)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
