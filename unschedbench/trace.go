package main

import (
	"sort"
	"time"
)

// A span is one timed call into a layer during the replay. Spans of one
// op share its id; parent indexes the enclosing span in the same
// recorder (-1 for an op's root).
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration
}

// A recorder keeps spans and counts in memory for one replay goroutine;
// nothing is written out until the run ends. A nil *recorder records
// nothing, which is how the untraced replay runs the same code.
type recorder struct {
	epoch  time.Time
	spans  []span
	open   []int // stack of open span indexes
	op     int
	counts map[string]float64
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, counts: make(map[string]float64)}
}

// setOp makes the spans begun from now on belong to op i.
func (r *recorder) setOp(i int) {
	if r != nil {
		r.op = i
	}
}

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{name: name, op: r.op, parent: parent, start: time.Since(r.epoch)})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].end = time.Since(r.epoch)
}

// count adds v to a named counter recorded at the same layer boundary
// as the spans.
func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.counts[name] += v
}

// mergeSpans appends the spans of one recorder to dst, moving their
// parent indexes, which are local to that recorder, to dst's positions.
func mergeSpans(dst, src []span) []span {
	base := len(dst)
	for _, s := range src {
		if s.parent >= 0 {
			s.parent += base
		}
		dst = append(dst, s)
	}
	return dst
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap one
// another; overlapping parts are counted once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s, spans, children[i])
	}
	return self
}

// covered returns the length of the union of the child intervals,
// clipped to the parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}
