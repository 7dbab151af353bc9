package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v (ok=%v), want 90 at p90", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, minBeyond)
	}

	v, pct, ok = tail(xs[:11])
	if !ok || v != 90 || pct != 100.0/11 {
		t.Fatalf("tail of 11 samples = %v at p%v (ok=%v), want the smallest", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("tail of 10 samples reported; none has 10 samples beyond it")
	}

	// With enough samples the tail stops at p99, which then has more
	// than ten samples beyond it.
	big := make([]float64, 5000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, pct, ok := tail(big); !ok || v != 4950 || pct != 99 {
		t.Fatalf("tail of 1..5000 = %v at p%v (ok=%v), want 4950 at p99", v, pct, ok)
	}
	if v, pct, _ := tail(big[:1000]); v != 990 || pct != 99 {
		t.Fatalf("tail of 1..1000 = %v at p%v, want 990 at p99 (exactly ten beyond)", v, pct)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{name: "op", parent: -1, start: ms(0), end: ms(100)},
		{name: "a", parent: 0, start: ms(10), end: ms(40)},
		{name: "b", parent: 0, start: ms(30), end: ms(60)},  // overlaps a
		{name: "c", parent: 0, start: ms(90), end: ms(120)}, // runs past its parent
		{name: "d", parent: 1, start: ms(15), end: ms(25)},  // grandchild, under a
	}
	self := selfTimes(spans)
	// op: children cover [10,60] and [90,100] = 60ms of its 100ms.
	want := []time.Duration{ms(40), ms(20), ms(30), ms(30), ms(10)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, self[i], want[i])
		}
	}
}

// TestMergedRecordersKeepTheirOwnParents merges the spans of two
// replay workers that ran at the same time: each worker's layer spans
// must stay children of its own op span, so the self times after the
// merge are those of each recorder alone.
func TestMergedRecordersKeepTheirOwnParents(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	w1 := []span{
		{name: "op", op: 0, parent: -1, start: ms(0), end: ms(100)},
		{name: "sched.schedule", op: 0, parent: 0, start: ms(10), end: ms(60)},
	}
	w2 := []span{
		{name: "op", op: 1, parent: -1, start: ms(5), end: ms(95)},
		{name: "ipsc.simulate", op: 1, parent: 0, start: ms(20), end: ms(90)},
	}
	merged := mergeSpans(mergeSpans(nil, w1), w2)
	want := append(selfTimes(w1), selfTimes(w2)...)
	got := selfTimes(merged)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s of op %d) = %v after the merge, %v before", merged[i].name, merged[i].op, got[i], want[i])
		}
	}
	if merged[3].parent != 2 {
		t.Fatalf("second worker's child has parent %d, want 2", merged[3].parent)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder(time.Now())
	r.setOp(7)
	r.begin("op")
	r.begin("sched.schedule")
	r.end()
	r.begin("ipsc.simulate")
	r.end()
	r.end()
	if len(r.spans) != 3 || r.spans[1].parent != 0 || r.spans[2].parent != 0 || r.spans[0].parent != -1 {
		t.Fatalf("spans = %+v, want two children of one root", r.spans)
	}
	for _, s := range r.spans {
		if s.op != 7 || s.end < s.start {
			t.Fatalf("span %+v: want op 7 and end >= start", s)
		}
	}
	var nilRec *recorder // the untraced replay records nothing
	nilRec.setOp(1)
	nilRec.begin("op")
	nilRec.count("x", 1)
	nilRec.end()
}

// TestOpenLoopCountsStallFromDueTime checks that a stall delays the
// requests due after it: their latency runs from their due time, not
// from when the busy client finally sent them.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const (
		stall = 150 * time.Millisecond
		gap   = 5 * time.Millisecond
	)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 4 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()

	dues := make([]time.Duration, 40)
	for i := range dues {
		dues[i] = time.Duration(i) * gap
	}
	tm := make([]timing, len(dues))
	openLoop(time.Now(), dues, 1, tm, func(i int) {
		resp, err := c.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})
	if tm[3].service() < stall {
		t.Fatalf("stalled request took %v, want >= %v", tm[3].service(), stall)
	}
	// Request 4 was due 5ms after the stalled one began; it waited for
	// the client through the rest of the stall.
	if tm[4].latency() < stall-2*gap || tm[4].late() < stall-2*gap {
		t.Fatalf("request after the stall: latency %v, late %v; want both >= %v", tm[4].latency(), tm[4].late(), stall-2*gap)
	}
	if tm[4].service() > stall/2 {
		t.Fatalf("request after the stall served in %v; the wait must come from its due time, not the server", tm[4].service())
	}
	// The backlog drains: the last request is served close to its due time.
	if last := tm[len(tm)-1]; last.latency() > stall/2 {
		t.Fatalf("last request latency %v; the backlog did not drain", last.latency())
	}
}

func TestPlansArePureFunctionsOfTheSeed(t *testing.T) {
	for _, name := range []string{"paper-cold", "hot-mix"} {
		a, err := workloads[name](42, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := workloads[name](42, 2*time.Second)
		c, _ := workloads[name](43, 2*time.Second)
		if len(a.ops) != len(b.ops) || len(a.ops) == 0 {
			t.Fatalf("%s: %d and %d ops for one seed", name, len(a.ops), len(b.ops))
		}
		same := true
		for i := range a.ops {
			if a.ops[i].class != b.ops[i].class || a.ops[i].key != b.ops[i].key || string(flat(a.ops[i].body)) != string(flat(b.ops[i].body)) {
				t.Fatalf("%s: op %d differs between two plans of one seed", name, i)
			}
			if i < len(c.ops) && string(flat(a.ops[i].body)) != string(flat(c.ops[i].body)) {
				same = false
			}
		}
		if same && len(a.ops) == len(c.ops) {
			t.Fatalf("%s: seeds 42 and 43 gave identical plans", name)
		}
	}
}

func flat(body [][]byte) []byte {
	var out []byte
	for _, b := range body {
		out = append(out, b...)
	}
	return out
}
