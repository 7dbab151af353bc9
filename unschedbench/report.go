package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// layerSpans are the replay's layer boundaries, in report order. The
// root "op" span's self time is the replay's own glue.
var layerSpans = []string{
	"service.decode", "comm.matrix_build", "comm.hash", "quality.pick",
	"workload.build", "sched.schedule", "ipsc.simulate", "service.encode",
}

// perLayer turns the traced replay and the daemon's /metrics deltas into
// the per-layer metrics, and prints them with a per-op-class account of
// the untraced HTTP service time. untraced are the wall times of the
// untraced replays run before and after the traced one.
func perLayer(p *plan, outs []outcome, tm []timing, tc *check, untraced [2]time.Duration, before, after map[string]float64, lateMs []float64) map[string]metric {
	self := selfTimes(tc.spans)
	total := make(map[string]time.Duration)
	type classAcc struct {
		ops    int
		http   time.Duration
		layers map[string]time.Duration
	}
	classes := make(map[string]*classAcc)
	n := 0
	for i := range outs {
		if !outs[i].issued {
			continue
		}
		n++
		c := classes[p.ops[i].class]
		if c == nil {
			c = &classAcc{layers: make(map[string]time.Duration)}
			classes[p.ops[i].class] = c
		}
		c.ops++
		c.http += tm[i].service()
	}
	for k, s := range tc.spans {
		total[s.name] += self[k]
		if s.op >= 0 {
			classes[p.ops[s.op].class].layers[s.name] += self[k]
		}
	}
	perOp := func(name string) float64 { return ms(total[name]) / float64(n) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	var httpTotal, layerTotal time.Duration
	for _, c := range classes {
		httpTotal += c.http
	}
	for _, l := range layerSpans {
		layerTotal += total[l]
	}
	hits, misses := delta("unschedd_cache_hits_total"), delta("unschedd_cache_misses_total")
	responses := delta("unschedd_response_encoding_total")
	requests := delta("unschedd_requests_total")
	plain := (untraced[0] + untraced[1]).Seconds() / 2
	tr := tc.counts["ipsc.transfers"]
	out := map[string]metric{
		"sched.schedule_ms":         {perOp("sched.schedule"), "ms"},
		"sched.phases":              {ratio(tc.counts["sched.phases"], tc.counts["sched.schedules"]), "count"},
		"ipsc.simulate_ms":          {perOp("ipsc.simulate"), "ms"},
		"ipsc.host_ns_per_transfer": {ratio(float64(total["ipsc.simulate"]), tr), "ns"},
		"ipsc.transfers":            {tr / float64(n), "count"},
		"ipsc.sim_resource_wait_us": {tc.counts["ipsc.sim_resource_wait_us"] / float64(n), "us"},
		"comm.matrix_build_ms":      {perOp("comm.matrix_build"), "ms"},
		"comm.hash_ms":              {perOp("comm.hash"), "ms"},
		"comm.messages":             {tc.counts["comm.messages"] / float64(n), "count"},
		"workload.build_ms":         {perOp("workload.build"), "ms"},
		"topo.route_table_ms":       {ms(total["topo.route_table"]), "ms"},
		"topo.lazy_tables":          {tc.counts["topo.lazy_tables"], "count"},
		"quality.pick_us":           {ratio(float64(total["quality.pick"])/1e3, tc.counts["quality.picks"]), "us"},
		"service.decode_ms":         {perOp("service.decode"), "ms"},
		"service.encode_ms":         {perOp("service.encode"), "ms"},
		"service.other_ms":          {ms(httpTotal-layerTotal) / float64(n), "ms"},
		"service.cache_hit_ratio":   {ratio(hits, hits+misses), "ratio"},
		"service.flight_dedup":      {delta("unschedd_flight_dedup_total"), "count"},
		"service.not_modified":      {delta("unschedd_http_304_total"), "count"},
		"service.rejected":          {delta("unschedd_rejected_total"), "count"},
		"service.resp_bytes_per_op": {ratio(delta("unschedd_response_bytes_total"), responses), "bytes"},
		"driver.late_p99_ms":        {percentile(lateMs, 99), "ms"},
		"trace.overhead_pct":        {100 * (tc.wall.Seconds()/plain - 1), "%"},
	}

	fmt.Printf("per-layer metrics (traced replay of %d ops; means per op unless noted):\n", n)
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	bases := map[string]string{
		"sched.phases":              fmt.Sprintf("per schedule, %.0f schedules", tc.counts["sched.schedules"]),
		"ipsc.host_ns_per_transfer": fmt.Sprintf("%.0f transfers", tr),
		"topo.route_table_ms":       fmt.Sprintf("total for %d topologies", len(p.topos)),
		"quality.pick_us":           fmt.Sprintf("per pick, %.0f picks", tc.counts["quality.picks"]),
		"service.cache_hit_ratio":   fmt.Sprintf("%.0f hits of %.0f lookups", hits, hits+misses),
		"service.flight_dedup":      fmt.Sprintf("of %.0f requests", requests),
		"service.not_modified":      fmt.Sprintf("of %.0f requests", requests),
		"service.rejected":          fmt.Sprintf("of %.0f requests", requests),
		"service.resp_bytes_per_op": fmt.Sprintf("per response, %.0f responses", responses),
		"driver.late_p99_ms":        fmt.Sprintf("n=%d", len(lateMs)),
		"trace.overhead_pct":        fmt.Sprintf("traced replay %.3f s vs mean of untraced %.3f s before and %.3f s after", tc.wall.Seconds(), untraced[0].Seconds(), untraced[1].Seconds()),
	}
	for _, k := range names {
		fmt.Printf("  %-27s %14.4f %-6s %s\n", k, out[k].Value, out[k].Unit, bases[k])
	}

	fmt.Println("per op class: untraced HTTP service time = layer self times + service.other (ms per op)")
	cls := make([]string, 0, len(classes))
	for k := range classes {
		cls = append(cls, k)
	}
	sort.Strings(cls)
	short := make([]string, len(layerSpans))
	for i, l := range layerSpans {
		short[i] = l[strings.IndexByte(l, '.')+1:]
	}
	fmt.Printf("  %-34s %6s %10s", "class", "ops", "http")
	for _, s := range short {
		fmt.Printf(" %10.10s", s)
	}
	fmt.Printf(" %10s\n", "other")
	for _, k := range cls {
		c := classes[k]
		per := func(d time.Duration) float64 { return ms(d) / float64(c.ops) }
		fmt.Printf("  %-34.34s %6d %10.3f", k, c.ops, per(c.http))
		var sum time.Duration
		for _, l := range layerSpans {
			fmt.Printf(" %10.3f", per(c.layers[l]))
			sum += c.layers[l]
		}
		fmt.Printf(" %10.3f\n", per(c.http-sum))
	}
	return out
}
