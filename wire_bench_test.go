package unsched

// Wire-format benchmarks, tracked by cmd/benchgate in CI alongside the
// paper tables: the binary matrix codec against its JSON triple form,
// and the service's negotiated response path end to end over HTTP —
// cached JSON, cached binary+gzip, and If-None-Match revalidation.
// Each reports the actual transfer size as wire_bytes so a regression
// in either speed or compactness trips the gate.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"unsched/internal/comm"
	"unsched/internal/hypercube"
	"unsched/internal/sched"
	"unsched/internal/service"
)

func wireBenchMatrix(b *testing.B, n int) *comm.Matrix {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	m, err := comm.DRegular(n, 8, 128*1024, rng)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchWireEncodeJSON times the service's JSON matrix path from the
// matrix, as the binary bench does: the wire triples built by
// NewWireMatrix, then encoded. The encoder writes into one reused
// buffer, so the allocations counted are the wire form's own.
func benchWireEncodeJSON(b *testing.B, n int) {
	m := wireBenchMatrix(b, n)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.Encode(service.NewWireMatrix(m)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()-1), "wire_bytes") // Encode adds a newline
}

func benchWireEncodeBinary(b *testing.B, n int) {
	m := wireBenchMatrix(b, n)
	var enc []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc = m.EncodeBinary()
	}
	b.StopTimer()
	if _, err := DecodeMatrixBinary(enc); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(enc)), "wire_bytes")
}

func BenchmarkWireEncodeMatrixJSON_256(b *testing.B)    { benchWireEncodeJSON(b, 256) }
func BenchmarkWireEncodeMatrixBinary_256(b *testing.B)  { benchWireEncodeBinary(b, 256) }
func BenchmarkWireEncodeMatrixJSON_1024(b *testing.B)   { benchWireEncodeJSON(b, 1024) }
func BenchmarkWireEncodeMatrixBinary_1024(b *testing.B) { benchWireEncodeBinary(b, 1024) }
func BenchmarkWireEncodeMatrixBinary_4096(b *testing.B) { benchWireEncodeBinary(b, 4096) }

// BenchmarkWireMatrixHash_4096 times the content hash of a matrix at
// the service's node cap — the cost every matrix-body request pays for
// its cache key.
func BenchmarkWireMatrixHash_4096(b *testing.B) {
	m := wireBenchMatrix(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ContentHash()
	}
}

// wireBenchResult is what /v1/schedule answers for a d=8 workload on
// an n-node cube: the RS_NL schedule plus the matrix echo.
func wireBenchResult(b *testing.B, n int) *service.ScheduleResult {
	b.Helper()
	m, err := comm.DRegular(n, 8, 4096, rand.New(rand.NewSource(17)))
	if err != nil {
		b.Fatal(err)
	}
	cube, err := hypercube.ForNodes(n)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := sched.NewCore(cube).RSNL(m, rand.New(rand.NewSource(18)))
	if err != nil {
		b.Fatal(err)
	}
	ws := &service.WireSchedule{Algorithm: sc.Algorithm, N: sc.N, Ops: sc.Ops}
	for _, p := range sc.Phases {
		var phase service.WirePhase
		for src, dst := range p.Send {
			if dst >= 0 {
				phase = append(phase, [3]int64{int64(src), int64(dst), p.Bytes[src]})
			}
		}
		ws.Phases = append(ws.Phases, phase)
	}
	return &service.ScheduleResult{Chosen: "RS_NL", Topology: cube.Name(), Workload: "uniform:8:4096",
		Matrix: service.NewWireMatrix(m), Seed: -17, LinkFree: true, Schedule: ws}
}

// benchWireDecodeSimulate times the daemon's decode of a /v1/simulate
// body that re-ships a d=8 RS_NL schedule: the strict streaming decode
// the handler runs, into a fresh request.
func benchWireDecodeSimulate(b *testing.B, n int) {
	res := wireBenchResult(b, n)
	body, err := json.Marshal(service.SimulateRequest{Schedule: res.Schedule, Topology: &WireTopology{Spec: res.Topology}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req service.SimulateRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWireEncodeSchedule times what the daemon does with a computed
// schedule result on a JSON miss: render it, keep an exactly sized
// copy for the cache, and splice that into the response envelope.
func benchWireEncodeSchedule(b *testing.B, n int) {
	res := wireBenchResult(b, n)
	key := strings.Repeat("ab", 32)
	var buf, env []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = res.AppendJSON(buf[:0])
		raw := bytes.Clone(buf)
		env = (&service.Envelope{Key: key, Result: raw}).AppendJSON(env[:0])
	}
	b.ReportMetric(float64(len(env)), "wire_bytes")
}

func BenchmarkWireDecodeSimulateRequest_64(b *testing.B)   { benchWireDecodeSimulate(b, 64) }
func BenchmarkWireDecodeSimulateRequest_4096(b *testing.B) { benchWireDecodeSimulate(b, 4096) }
func BenchmarkWireEncodeScheduleResult_64(b *testing.B)    { benchWireEncodeSchedule(b, 64) }
func BenchmarkWireEncodeScheduleResult_4096(b *testing.B)  { benchWireEncodeSchedule(b, 4096) }

// wireBenchServer starts an in-process service and primes the cache
// with one paper-scale schedule, returning the URL, the request body,
// and the response's ETag for revalidation runs.
func wireBenchServer(b *testing.B) (ts *httptest.Server, body []byte, etag string) {
	b.Helper()
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ts = httptest.NewServer(srv)
	b.Cleanup(func() { ts.Close(); srv.Close() })
	req := ScheduleRequest{
		Workload:  "uniform:8:65536",
		Algorithm: "RS_NL",
		Topology:  &WireTopology{Spec: "cube:8"},
	}
	if body, err = json.Marshal(req); err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/schedule", ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("prime request: %d", resp.StatusCode)
	}
	return ts, body, resp.Header.Get("ETag")
}

func wireBenchDo(b *testing.B, url string, body []byte, hdr map[string]string, wantStatus int) int {
	b.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeJSON)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		b.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	return int(n)
}

// BenchmarkScheduleHTTPCachedJSON measures the default wire path: a
// cache-hit schedule response as identity-encoded JSON.
func BenchmarkScheduleHTTPCachedJSON(b *testing.B) {
	ts, body, _ := wireBenchServer(b)
	hdr := map[string]string{"Accept-Encoding": "identity"}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = wireBenchDo(b, ts.URL+"/v1/schedule", body, hdr, http.StatusOK)
	}
	b.ReportMetric(float64(n), "wire_bytes")
}

// BenchmarkScheduleHTTPCachedBinaryGzip measures the compact path the
// README's 10x claim rests on: the same cache hit as gzipped binary.
func BenchmarkScheduleHTTPCachedBinaryGzip(b *testing.B) {
	ts, body, _ := wireBenchServer(b)
	hdr := map[string]string{"Accept": ContentTypeBinary, "Accept-Encoding": "gzip"}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = wireBenchDo(b, ts.URL+"/v1/schedule", body, hdr, http.StatusOK)
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "wire_bytes")
	// The compact form must actually decode: fetch once more and check.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader(body))
	req.Header.Set("Content-Type", ContentTypeJSON)
	req.Header.Set("Accept", ContentTypeBinary)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := DecodeBinaryResponse(raw); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleHTTPRevalidate304 measures the zero-body path: the
// client holds the response and only revalidates its content hash.
func BenchmarkScheduleHTTPRevalidate304(b *testing.B) {
	ts, body, etag := wireBenchServer(b)
	if etag == "" {
		b.Fatal("prime response carried no ETag")
	}
	hdr := map[string]string{"If-None-Match": etag}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = wireBenchDo(b, ts.URL+"/v1/schedule", body, hdr, http.StatusNotModified)
	}
	b.ReportMetric(float64(n), "wire_bytes")
}
