package service

// Typed JSON for the service's hot arrays. Request bodies are mostly
// [src, dst, bytes] triples (a matrix's messages, a schedule's phases),
// and a schedule result is mostly the same triples going out. Both
// directions skip reflection here:
//
//   - WirePhase.UnmarshalJSON scans canonical integer triples straight
//     into the slice and hands anything else to encoding/json on the
//     same bytes, so accept/reject and the decoded values stay
//     encoding/json's (FuzzWireTriples checks it differentially).
//   - ScheduleResult.AppendJSON renders a result with appends, byte for
//     byte what json.Marshal writes (TestScheduleResultAppendJSON). It
//     is deliberately not a MarshalJSON: encoding/json re-scans and
//     compacts whatever a Marshaler returns, which costs as much as the
//     reflection it would replace.
//   - Envelope.AppendJSON and BatchItem.appendJSON splice the cached result
//     bytes into the response envelope instead of handing them to
//     json.Marshal as a RawMessage, which re-scans the whole result on
//     every response, cache hits included. The splice equals
//     json.Marshal's output whenever the result is compact, HTML-escaped
//     JSON — which every result this package encodes or accepts into
//     its cache is (see validDoc).

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"
	"unicode/utf8"
)

// UnmarshalJSON decodes a JSON array of [src, dst, bytes] triples.
// Canonical input — integers that fit an int64, exactly three per
// triple, any JSON whitespace between tokens — is scanned directly.
// Everything else (null, short or long triples, null elements,
// fractions, exponents, overflow, malformed bytes) goes to
// encoding/json on the same bytes, so the result, including errors
// and encoding/json's zero-filling of short triples, is exactly what
// json.Unmarshal into [][3]int64 gives.
func (p *WirePhase) UnmarshalJSON(b []byte) error {
	if out, ok := scanTriples(b); ok {
		*p = out
		return nil
	}
	return json.Unmarshal(b, (*[][3]int64)(p))
}

// scanTriples is UnmarshalJSON's fast path; ok=false means the input
// is not canonical and must be decoded by encoding/json instead.
func scanTriples(b []byte) (out WirePhase, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '[' {
		return nil, false
	}
	// A canonical triple takes at least 8 bytes ("[0,0,0],"), so the
	// capacity bound never exceeds 3x the input, whatever it holds.
	n := bytes.Count(b, []byte{'['}) - 1
	if lim := len(b) / 8; n > lim {
		n = lim
	}
	out = make(WirePhase, 0, n)
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return out, skipSpace(b, i+1) == len(b)
	}
	for {
		if i == len(b) || b[i] != '[' {
			return nil, false
		}
		var t [3]int64
		for k := range t {
			v, j, ok := scanInt(b, skipSpace(b, i+1))
			if !ok {
				return nil, false
			}
			t[k] = v
			i = skipSpace(b, j)
			want := byte(',')
			if k == len(t)-1 {
				want = ']'
			}
			if i == len(b) || b[i] != want {
				return nil, false
			}
		}
		out = append(out, t)
		i = skipSpace(b, i+1)
		if i == len(b) {
			return nil, false
		}
		if b[i] == ']' {
			return out, skipSpace(b, i+1) == len(b)
		}
		if b[i] != ',' {
			return nil, false
		}
		i = skipSpace(b, i+1)
	}
}

// scanInt reads a JSON integer (-?(0|[1-9][0-9]*)) that fits an int64
// at b[i:], returning it and the index after it. A fraction or
// exponent that follows is left for the caller to trip over.
func scanInt(b []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		u = u*10 + uint64(b[i]-'0')
		i++
	}
	// 19 digits cannot wrap a uint64; longer numbers, leading zeros
	// and out-of-range magnitudes are encoding/json's to judge.
	switch digits := i - start; {
	case digits == 0, digits > 19, digits > 1 && b[start] == '0':
		return 0, i, false
	case neg && u > 1<<63, !neg && u > 1<<63-1:
		return 0, i, false
	}
	if neg {
		return -int64(u), i, true
	}
	return int64(u), i, true
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i, by JSON's definition of whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// appendTriples appends p as json.Marshal writes a [][3]int64.
func appendTriples(dst []byte, p [][3]int64) []byte {
	if p == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for k, t := range p {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, t[0], 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, t[1], 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, t[2], 10)
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// appendJSONString appends s as a JSON string the way json.Marshal does.
// Service strings (tags, topology names, specs, keys) are plain ASCII;
// a string holding anything json.Marshal escapes — quotes, control
// bytes, HTML-sensitive '<', '>', '&', or non-ASCII — is handed to
// json.Marshal itself, so the bytes match on every Go version.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendJSONBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// AppendJSON appends the result exactly as json.Marshal(res) writes it.
func (res *ScheduleResult) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"chosen":`...)
	dst = appendJSONString(dst, res.Chosen)
	dst = append(dst, `,"topology":`...)
	dst = appendJSONString(dst, res.Topology)
	if res.Workload != "" {
		dst = append(dst, `,"workload":`...)
		dst = appendJSONString(dst, res.Workload)
	}
	if mj := res.Matrix; mj != nil {
		dst = append(dst, `,"matrix":{"n":`...)
		dst = strconv.AppendInt(dst, int64(mj.N), 10)
		dst = append(dst, `,"messages":`...)
		dst = appendTriples(dst, mj.Messages)
		dst = append(dst, '}')
	}
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendInt(dst, res.Seed, 10)
	dst = append(dst, `,"link_free":`...)
	dst = appendJSONBool(dst, res.LinkFree)
	dst = append(dst, `,"schedule":`...)
	sj := res.Schedule
	if sj == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, `{"algorithm":`...)
	dst = appendJSONString(dst, sj.Algorithm)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(sj.N), 10)
	dst = append(dst, `,"ops":`...)
	dst = strconv.AppendInt(dst, sj.Ops, 10)
	dst = append(dst, `,"phases":`...)
	if sj.Phases == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for k, p := range sj.Phases {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = appendTriples(dst, p)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}}"...)
}

// encBufPool recycles the scratch buffers results and envelopes are
// rendered into. Results are copied out at their exact size before
// caching: the cache holds bytes, never a buffer's spare capacity.
var encBufPool = sync.Pool{New: func() any { return new([]byte) }}

func getEncBuf() *[]byte { return encBufPool.Get().(*[]byte) }

// putEncBuf returns a buffer to the pool, keeping the grown slice.
func putEncBuf(bp *[]byte, buf []byte) {
	*bp = buf[:0]
	encBufPool.Put(bp)
}

// encodeJSON renders the cached JSON form of a schedule result.
func (res *ScheduleResult) encodeJSON() ([]byte, error) {
	bp := getEncBuf()
	buf := res.AppendJSON(*bp)
	out := make([]byte, len(buf))
	copy(out, buf)
	putEncBuf(bp, buf)
	return out, nil
}

// encodeJSON renders the cached JSON form of a simulate result. It is
// a few scalars, so it keeps json.Marshal.
func (res *SimulateResult) encodeJSON() ([]byte, error) { return json.Marshal(res) }

// AppendJSON appends the envelope with its Result spliced in verbatim:
// exactly json.Marshal(env) when Result is a compact, HTML-escaped JSON
// document, as every result the service caches is.
func (env *Envelope) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"key":`...)
	dst = appendJSONString(dst, env.Key)
	dst = append(dst, `,"cached":`...)
	dst = appendJSONBool(dst, env.Cached)
	dst = append(dst, `,"result":`...)
	dst = append(dst, env.Result...)
	return append(dst, '}')
}

// appendJSON appends json.Marshal(item), splicing a result line's
// cached bytes as Envelope.AppendJSON does. Error lines are rare and
// small and keep json.Marshal.
func (item *BatchItem) appendJSON(dst []byte) ([]byte, error) {
	if item.Error != nil {
		line, err := json.Marshal(item)
		return append(dst, line...), err
	}
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(item.Index), 10)
	if item.Key != "" {
		dst = append(dst, `,"key":`...)
		dst = appendJSONString(dst, item.Key)
	}
	if item.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if len(item.Result) != 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, item.Result...)
	}
	return append(dst, '}'), nil
}

// validDoc reports whether raw may enter the cache as a result
// document: cached bytes are spliced into responses verbatim, so
// anything that is not one JSON value would reach clients as a 200
// carrying invalid JSON. Records arriving from peers or from disk are
// checked with it before they are cached.
func validDoc(raw []byte) bool { return json.Valid(raw) }
