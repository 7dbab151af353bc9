package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unsched/internal/service"
)

// A daemon is an in-process unschedd with default options, served on a
// loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	served chan error
}

func startDaemon() (*daemon, error) {
	srv, err := service.NewServer(service.Options{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and the service down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout leaves nothing else to do
	<-d.served
	d.srv.Close()
}

// newClient returns an HTTP client with at most conns connections.
// Compression is negotiated per request, so the transport must not add
// or strip gzip on its own.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// A step is one HTTP exchange of an op, reduced to what the output
// check and the digest need; bodies themselves are not kept.
type step struct {
	bodyHash [32]byte // of the decoded (un-gzipped) body
	// JSON envelopes only:
	key        string
	cached     bool
	resultHash [32]byte
	res        scheduleFields // schedule steps of chained ops
}

// An outcome is everything the client saw of one op.
type outcome struct {
	issued bool
	steps  []step
	err    error
}

// post sends one request and returns its status and decoded body.
func post(c *http.Client, base, path string, body [][]byte, mode wireMode, etag string) (int, []byte, error) {
	readers := make([]io.Reader, len(body))
	size := 0
	for i, b := range body {
		readers[i] = bytes.NewReader(b)
		size += len(b)
	}
	req, err := http.NewRequest(http.MethodPost, base+path, io.MultiReader(readers...))
	if err != nil {
		return 0, nil, err
	}
	req.ContentLength = int64(size)
	req.Header.Set("Content-Type", service.ContentTypeJSON)
	switch mode {
	case modeBinaryGzip:
		req.Header.Set("Accept", service.ContentTypeBinary)
		req.Header.Set("Accept-Encoding", "gzip")
	case modeRevalidate:
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var r io.Reader = resp.Body
	if resp.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(resp.Body)
		if err != nil {
			return 0, nil, err
		}
		r = gz
	}
	raw, err := io.ReadAll(r)
	return resp.StatusCode, raw, err
}

// A variant is one hot-mix key asked for in one wire mode.
type variant struct {
	key  int
	mode wireMode
}

// exemplars keeps the first body of each hot-mix response variant, so
// every repeat can be checked against one verified body.
type exemplars struct {
	mu     sync.Mutex
	bodies map[variant][]byte
}

func (e *exemplars) keep(id variant, body []byte) {
	e.mu.Lock()
	if _, ok := e.bodies[id]; !ok {
		e.bodies[id] = body
	}
	e.mu.Unlock()
}

// runOp executes one op and reduces its responses to steps.
func runOp(c *http.Client, base string, o *op, ex *exemplars) outcome {
	out := outcome{issued: true}
	status, body, err := post(c, base, o.path, o.body, o.mode, o.etag)
	if err != nil {
		out.err = err
		return out
	}
	st := step{bodyHash: sha256.Sum256(body)}
	want := http.StatusOK
	if o.mode == modeRevalidate {
		want = http.StatusNotModified
	}
	if status != want {
		out.steps = append(out.steps, st)
		out.err = fmt.Errorf("%s: status %d, want %d: %.200s", o.path, status, want, body)
		return out
	}
	if o.key >= 0 {
		ex.keep(variant{o.key, o.mode}, body)
		out.steps = append(out.steps, st)
		return out
	}
	if err := parseEnvelope(body, &st, true); err != nil {
		out.err = err
		return out
	}
	out.steps = append(out.steps, st)
	status, body, err = post(c, base, "/v1/simulate", simulateBody(o.sched.topo, &st.res), modeJSON, "")
	// Only the seed is needed later; holding every schedule would grow
	// the heap the run measures.
	out.steps[0].res.Schedule, out.steps[0].res.Matrix = nil, nil
	if err != nil {
		out.err = err
		return out
	}
	sim := step{bodyHash: sha256.Sum256(body)}
	if status != http.StatusOK {
		out.steps = append(out.steps, sim)
		out.err = fmt.Errorf("/v1/simulate: status %d: %.200s", status, body)
		return out
	}
	if err := parseEnvelope(body, &sim, false); err != nil {
		out.err = err
		return out
	}
	out.steps = append(out.steps, sim)
	return out
}

// parseEnvelope reads a JSON response envelope into st; schedule
// results are also read for the fields that chain a simulate request.
func parseEnvelope(body []byte, st *step, schedule bool) error {
	var env service.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("response envelope: %w", err)
	}
	st.key, st.cached, st.resultHash = env.Key, env.Cached, sha256.Sum256(env.Result)
	if schedule {
		if err := json.Unmarshal(env.Result, &st.res); err != nil {
			return fmt.Errorf("schedule result: %w", err)
		}
	}
	return nil
}

// timing is when an op was due, sent and completed, from the run start.
type timing struct {
	due, start, end time.Duration
}

func (t timing) latency() time.Duration { return t.end - t.due }
func (t timing) service() time.Duration { return t.end - t.start }
func (t timing) late() time.Duration    { return t.start - t.due }

// closedLoop runs the passes with clients goroutines, each sending its
// next op as soon as its previous one completed (the moment the next op
// is due). A pass starts only inside the window. With whole, every op of
// a started pass runs and the next pass waits for it; otherwise clients
// stop taking ops when the window ends.
func closedLoop(t0 time.Time, window time.Duration, clients int, passes [][]int, whole bool, tm []timing, exec func(i int)) {
	for _, pass := range passes {
		if time.Since(t0) >= window {
			return
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				due := time.Since(t0)
				for {
					k := int(next.Add(1)) - 1
					if k >= len(pass) || (!whole && due >= window) {
						return
					}
					i := pass[k]
					tm[i].due, tm[i].start = due, time.Since(t0)
					exec(i)
					tm[i].end = time.Since(t0)
					due = tm[i].end
				}
			}()
		}
		wg.Wait()
		if !whole {
			return
		}
	}
}

// openLoop sends op i at its due offset dues[i] whatever the state of
// earlier requests, using clients goroutines; an op whose due time has
// passed while every client was busy is sent late, and its latency
// counts from the due time.
func openLoop(t0 time.Time, dues []time.Duration, clients int, tm []timing, exec func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(dues) {
					return
				}
				sleepUntil(t0, dues[i])
				tm[i].due, tm[i].start = dues[i], time.Since(t0)
				exec(i)
				tm[i].end = time.Since(t0)
			}
		}()
	}
	wg.Wait()
}

// sleepUntil blocks until due after t0. time.Sleep on Linux wakes up to
// a millisecond late, which would add to the latency of every request
// sent on time; nanosleep wakes within tens of microseconds.
func sleepUntil(t0 time.Time, due time.Duration) {
	for wait := due - time.Since(t0); wait > 0; wait = due - time.Since(t0) {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// heapSampler records the largest HeapInuse seen while it runs. It reads
// runtime/metrics, which does not stop the world as ReadMemStats does:
// HeapInuse is the heap's object bytes plus the unused bytes of its
// in-use spans.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
	samples    int
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		for {
			metrics.Read(ms)
			h.peak = max(h.peak, ms[0].Value.Uint64()+ms[1].Value.Uint64())
			h.samples++
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() (uint64, int) {
	close(h.stop)
	<-h.done
	return h.peak, h.samples
}

// scrape reads the daemon's /metrics, summing each series over its
// labels.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

var errNoOps = errors.New("no op completed inside the window")

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
