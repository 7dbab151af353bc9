package service

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
)

// TestMatrixBurstHeapBounded sends sixteen concurrent tiny /v1/schedule
// bodies that each name a 4096-node matrix to a one-worker,
// one-slot-queue daemon. Matrix bodies are decoded on the handler
// goroutine, before keying, single flight or backpressure, so the
// cost of resolving one must scale with its messages, not with n^2
// (an n^2 array of sizes at n=4096 is 128 MiB per request). The whole
// burst must stay under a fixed allocation bound.
func TestMatrixBurstHeapBounded(t *testing.T) {
	const (
		requests = 16
		bound    = 64 << 20
	)
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	body := []byte(`{"matrix":{"n":4096,"messages":[]},"algorithm":"RS_N"}`)
	post := func() int {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	// One request first, so the worker's per-topology state is warm
	// and the measured burst is the per-request cost alone.
	if code := post(); code != http.StatusOK {
		t.Fatalf("warm-up request: status %d", code)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	codes := make([]int, requests)
	for k := range codes {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			codes[k] = post()
		}(k)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	for k, code := range codes {
		if code != http.StatusOK && code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
			t.Errorf("request %d: status %d", k, code)
		}
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("burst of %d requests allocated %d MiB, bound %d MiB", requests, got>>20, bound>>20)
	} else {
		t.Logf("burst of %d requests allocated %.1f MiB", requests, float64(got)/(1<<20))
	}
}
