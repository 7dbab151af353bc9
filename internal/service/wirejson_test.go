package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
)

// FuzzWireTriples holds the typed triple decoder to encoding/json on
// arbitrary bytes: called directly or from inside json.Unmarshal, it
// must accept exactly the inputs json.Unmarshal into [][3]int64
// accepts, with the same values (nil and empty kept apart), and every
// accepted value must survive the appender and the decoder again.
func FuzzWireTriples(f *testing.F) {
	for _, s := range []string{
		`[]`, `null`, `[[0,1,2]]`, `[[0,1,2],[3,4,5]]`,
		`[[-0,1,2]]`, `[[00,1,2]]`, `[[01,1,2]]`, `[[-01,1,2]]`,
		`[[1e3,1,2]]`, `[[1E3,1,2]]`, `[[1.0,1,2]]`, `[[1.5,1,2]]`, `[[0,1,2e0]]`,
		`[[9223372036854775807,-9223372036854775808,0]]`,
		`[[9223372036854775806,-9223372036854775807,1]]`,
		`[[9223372036854775808,0,0]]`, `[[-9223372036854775809,0,0]]`,
		`[[99999999999999999999,0,0]]`, `[[0000000000000000000001,0,0]]`,
		`[null]`, `[[0,1,2],null]`, `[[0,1,null]]`, `[[null,null,null]]`,
		`[[0,1]]`, `[[0]]`, `[[]]`, `[[0,1,2,3]]`, `[[0,1,2,3,4,5]]`,
		" [ [ 0 , 1 , 2 ] , [ 3 , 4 , 5 ] ] ", "\t[\n[\r0,\t1 ,2\n]\r\n]\n",
		`[[0,1,2],]`, `[[0,1,2]`, `[[0,1,2]] x`, `[[0,1,2]][]`, `[[0,1,2]]]`,
		`[[0,1,2] [3,4,5]]`, `[[0,1,2],,[3,4,5]]`, `[,[0,1,2]]`, `[[0,1,,2]]`,
		`{}`, `[{}]`, `[["0",1,2]]`, `[[true,1,2]]`, `[[-,1,2]]`, `[[- 1,1,2]]`,
		`[[+1,1,2]]`, `[[0x1,1,2]]`, `[[.5,1,2]]`, `[[1.,1,2]]`, `[[[0],1,2]]`,
		``, ` `, `[`, `]`, `nul`, "[[0,1,2]]\x00",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var want [][3]int64
		wantErr := json.Unmarshal(b, &want)
		var direct, nested WirePhase
		directErr := direct.UnmarshalJSON(b)
		nestedErr := json.Unmarshal(b, &nested)
		for _, got := range []struct {
			via string
			p   WirePhase
			err error
		}{{"UnmarshalJSON", direct, directErr}, {"json.Unmarshal", nested, nestedErr}} {
			if (got.err == nil) != (wantErr == nil) {
				t.Fatalf("%s on %q: err %v, encoding/json err %v", got.via, b, got.err, wantErr)
			}
			if wantErr == nil && !reflect.DeepEqual([][3]int64(got.p), want) {
				t.Fatalf("%s on %q: %#v, encoding/json %#v", got.via, b, got.p, want)
			}
		}
		if wantErr != nil {
			return
		}
		enc := appendTriples(nil, want)
		if ref, err := json.Marshal(want); err != nil || !bytes.Equal(enc, ref) {
			t.Fatalf("appendTriples(%#v) = %s, json.Marshal %s (%v)", want, enc, ref, err)
		}
		var back WirePhase
		if err := json.Unmarshal(enc, &back); err != nil || !reflect.DeepEqual([][3]int64(back), want) {
			t.Fatalf("round trip of %s: %#v (%v), want %#v", enc, back, err, want)
		}
		// The encoder's output is canonical: it must take the fast path.
		if _, ok := scanTriples(enc); want != nil && !ok {
			t.Fatalf("canonical %s fell back to encoding/json", enc)
		}
	})
}

// wireJSONStrings are strings json.Marshal writes as-is, and strings
// it escapes in every way it can: quotes, backslashes, control bytes,
// HTML-sensitive characters, non-ASCII, line separators, bad UTF-8.
var wireJSONStrings = []string{
	"", "RS_NL", "hypercube-6", "mesh-8x8-torus", "uniform:8:4096", "\x7f",
	`<script>`, "a&b", `quo"te`, `back\slash`, "tab\there", "nl\n", "ctl\x01\x1f",
	"\b\f", "ünïcödé", "\u2028\u2029", "bad\xffutf8",
}

func randomTriples(rng *rand.Rand) WirePhase {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return WirePhase{}
	}
	extremes := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 4096, 65536}
	p := make(WirePhase, rng.Intn(20)+1)
	for i := range p {
		for k := range p[i] {
			if rng.Intn(4) == 0 {
				p[i][k] = extremes[rng.Intn(len(extremes))]
			} else {
				p[i][k] = rng.Int63n(1<<20) - 1<<10
			}
		}
	}
	return p
}

// randomScheduleResult draws a result covering every shape the
// encoder branches on: AC (no phases), nil and empty phases, nil and
// present matrix echoes, empty workloads, negative seeds, and strings
// that need escaping.
func randomScheduleResult(rng *rand.Rand) *ScheduleResult {
	str := func() string { return wireJSONStrings[rng.Intn(len(wireJSONStrings))] }
	res := &ScheduleResult{
		Chosen:   str(),
		Topology: str(),
		Workload: str(),
		Seed:     rng.Int63() - rng.Int63(),
		LinkFree: rng.Intn(2) == 0,
	}
	if rng.Intn(3) == 0 {
		res.Matrix = &WireMatrix{N: rng.Intn(5000) - 10, Messages: randomTriples(rng)}
	}
	switch rng.Intn(4) {
	case 0: // no schedule at all
	case 1:
		res.Schedule = &WireSchedule{Algorithm: "AC", N: rng.Intn(4096)}
	default:
		res.Schedule = &WireSchedule{Algorithm: str(), N: rng.Intn(4096), Ops: rng.Int63() - rng.Int63()}
		if rng.Intn(5) > 0 {
			res.Schedule.Phases = make([]WirePhase, rng.Intn(6))
			for k := range res.Schedule.Phases {
				res.Schedule.Phases[k] = randomTriples(rng)
			}
		}
	}
	return res
}

// TestScheduleResultAppendJSON: the appender, the cached encoding, the
// spliced envelope and the spliced batch line are byte-identical to
// json.Marshal of the same values.
func TestScheduleResultAppendJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		res := randomScheduleResult(rng)
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON(%+v):\n got %s\nwant %s", res, got, want)
		}
		if got, err := res.encodeJSON(); err != nil || !bytes.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("encodeJSON: %s (cap %d, err %v), want exactly %s", got, cap(got), err, want)
		}
		checkSplices(t, str64(rng), rng.Intn(2) == 0, rng.Intn(5000), want)
	}
}

func str64(rng *rand.Rand) string {
	const hex = "0123456789abcdef"
	b := make([]byte, 64)
	for i := range b {
		b[i] = hex[rng.Intn(16)]
	}
	return string(b)
}

// checkSplices checks the envelope and batch lines built around a
// compact result document against json.Marshal.
func checkSplices(t *testing.T, key string, cached bool, index int, result []byte) {
	t.Helper()
	env := Envelope{Key: key, Cached: cached, Result: result}
	want, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if got := env.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("envelope:\n got %s\nwant %s", got, want)
	}
	for _, item := range []BatchItem{
		{Index: index, Key: key, Cached: cached, Result: result},
		{Index: index, Result: result},
		{Index: index, Error: &ErrorDetail{Code: CodeBadRequest, Message: `bad "<input>"`}},
	} {
		want, err := json.Marshal(item)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := item.appendJSON(nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("batch line:\n got %s (%v)\nwant %s", got, err, want)
		}
	}
}

// TestServedResultsMatchMarshal: what the daemon serves — results it
// computed and cached, and the envelopes around them — equals
// json.Marshal of the decoded documents, for every algorithm, a
// workload echo, and the simulate endpoint.
func TestServedResultsMatchMarshal(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	reqs := []ScheduleRequest{
		{Workload: "uniform:4:4096", Topology: &WireTopology{Spec: "cube:4"}, Algorithm: "AC", Seed: -3},
		{Workload: "halo:4x4:512", Topology: &WireTopology{Spec: "torus:4x4"}},
	}
	for _, alg := range []string{"LP", "RS_N", "RS_NL", "RS_NL_SZ", "GREEDY", "GREEDY_LF", "GREEDY_LF_LINK"} {
		reqs = append(reqs, ScheduleRequest{Matrix: testMatrix(t, 16, 4, 8192, 5), Algorithm: alg})
	}
	for _, rq := range reqs {
		for round := 0; round < 2; round++ { // computed, then cached
			st, body, _ := postCapture(t, ts.URL+"/v1/schedule", rq, "")
			if st != http.StatusOK {
				t.Fatalf("%+v: status %d: %s", rq, st, body)
			}
			var env Envelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatal(err)
			}
			var res ScheduleResult
			if err := json.Unmarshal(env.Result, &res); err != nil {
				t.Fatal(err)
			}
			if want, _ := json.Marshal(&res); !bytes.Equal(env.Result, want) {
				t.Fatalf("served result is not json.Marshal's:\n got %s\nwant %s", env.Result, want)
			}
			if want, _ := json.Marshal(env); !bytes.Equal(body, want) {
				t.Fatalf("served envelope is not json.Marshal's:\n got %s\nwant %s", body, want)
			}
			if round == 0 && res.Schedule != nil && res.Schedule.Algorithm != "AC" {
				sim := SimulateRequest{Schedule: res.Schedule, Topology: rq.Topology}
				st, body, _ := postCapture(t, ts.URL+"/v1/simulate", sim, "")
				var senv Envelope
				if err := json.Unmarshal(body, &senv); st != http.StatusOK || err != nil {
					t.Fatalf("simulate: status %d: %s", st, body)
				}
				if want, _ := json.Marshal(senv); !bytes.Equal(body, want) {
					t.Fatalf("simulate envelope is not json.Marshal's:\n got %s\nwant %s", body, want)
				}
			}
		}
	}
}
