package service

// Append-style response encoding for the serving hot paths. encoding/json's
// Encoder costs ~60 allocations per detect response (reflection walk, field
// buffering, HTML-escape scanning); the functions here build the identical
// bytes with strconv.Append* into a caller-owned (pooled) buffer instead.
//
// The contract is byte identity: for every response type encoded here,
// appendX(nil, v) must equal json.NewEncoder(buf).Encode(v)'s output —
// including the HTML escaping of < > &, encoding/json's float format, and
// the trailing newline Encode emits. TestAppendEncodersGolden pins this
// against the standard library for every type, so the old and new wire
// formats can never drift apart. Strings that need any escaping fall back
// to encoding/json itself (cold path), which makes the identity claim easy
// to trust: the fast path only covers bytes that encode as themselves.

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"samnet/internal/obs"
)

// Content-Type header values pre-allocated as one-element slices: direct map
// assignment (w.Header()[k] = v) skips the per-request slice allocation that
// Header().Set would pay. The slices must never be mutated.
var (
	ctJSON   = []string{"application/json"}
	ctNDJSON = []string{"application/x-ndjson"}
)

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest representation, %f style inside [1e-6, 1e21), %e style with a
// minimal exponent outside it. encoding/json refuses non-finite values
// (failing the whole encode); the detector only produces finite statistics,
// so a non-finite input encodes as 0 rather than corrupting the stream.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, '0')
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims a leading zero off negative exponents
		// ("2.5e-07" -> "2.5e-7").
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonStringSafe reports whether byte c encodes as itself inside a JSON
// string under encoding/json's default (HTML-escaping) encoder.
func jsonStringSafe(c byte) bool {
	return c >= 0x20 && c < utf8.RuneSelf &&
		c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendJSONString appends s — a string, or a name still sitting in a pooled
// request buffer — as a JSON string. The fast path covers plain ASCII that
// needs no escaping; anything else delegates to encoding/json so escapes,
// invalid UTF-8 and HTML characters stay byte-identical by construction.
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonStringSafe(s[i]) {
			blob, err := json.Marshal(string(s))
			if err != nil { // unreachable: a string always marshals
				return append(b, `""`...)
			}
			return append(b, blob...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendLinkJSON(b []byte, l LinkJSON) []byte {
	b = append(b, `{"a":`...)
	b = strconv.AppendInt(b, int64(l.A), 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, int64(l.B), 10)
	return append(b, '}')
}

// appendVerdict appends one VerdictJSON object, fields in struct order.
func appendVerdict(b []byte, v VerdictJSON) []byte {
	b = append(b, `{"decision":`...)
	b = appendJSONString(b, v.Decision)
	b = append(b, `,"lambda":`...)
	b = appendJSONFloat(b, v.Lambda)
	b = append(b, `,"z_pmax":`...)
	b = appendJSONFloat(b, v.ZPMax)
	b = append(b, `,"z_phi":`...)
	b = appendJSONFloat(b, v.ZPhi)
	b = append(b, `,"tv":`...)
	b = appendJSONFloat(b, v.TV)
	b = append(b, `,"p_max":`...)
	b = appendJSONFloat(b, v.PMax)
	b = append(b, `,"phi":`...)
	b = appendJSONFloat(b, v.Phi)
	b = append(b, `,"routes":`...)
	b = strconv.AppendInt(b, int64(v.Routes), 10)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(v.N), 10)
	b = append(b, `,"suspect_link":`...)
	b = appendLinkJSON(b, v.SuspectLink)
	b = append(b, `,"suspects":[`...)
	b = strconv.AppendInt(b, int64(v.Suspects[0]), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(v.Suspects[1]), 10)
	return append(b, ']', '}')
}

// appendDetectResponse appends a full /v1/detect response line (terminating
// newline included, as json.Encoder.Encode emits). With an explain record it
// falls back to encoding/json, the way appendJSONString does for escapes:
// decision records are cold-path payloads too rich to hand-encode.
func appendDetectResponse(b, profile []byte, v VerdictJSON, rec *obs.Decision) []byte {
	if rec != nil {
		blob, err := json.Marshal(DetectResponse{Profile: string(profile), Verdict: v, Explain: rec})
		if err != nil { // only a non-finite statistic fails, and the detector makes none
			return AppendErrorResponse(b, err.Error())
		}
		return append(append(b, blob...), '\n')
	}
	b = append(b, `{"profile":`...)
	b = appendJSONString(b, profile)
	b = append(b, `,"verdict":`...)
	b = appendVerdict(b, v)
	return append(b, '}', '\n')
}

// appendBatchDetectResponse appends a /v1/detect/batch response. errs holds
// one entry per item ("" for success) and is emitted only when any item
// failed, matching BatchDetectResponse's omitempty contract.
func appendBatchDetectResponse(b, profile []byte, verdicts []VerdictJSON, errs []string) []byte {
	b = append(b, `{"profile":`...)
	b = appendJSONString(b, profile)
	b = append(b, `,"verdicts":[`...)
	for i, v := range verdicts {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendVerdict(b, v)
	}
	b = append(b, ']')
	emit := false
	for _, e := range errs {
		if e != "" {
			emit = true
			break
		}
	}
	if emit {
		b = append(b, `,"errors":[`...)
		for i, e := range errs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, e)
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n')
}

// appendAnalyzeResponse appends a /v1/analyze response.
func appendAnalyzeResponse(b []byte, r AnalyzeResponse) []byte {
	b = append(b, `{"routes":`...)
	b = strconv.AppendInt(b, int64(r.Routes), 10)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"distinct_links":`...)
	b = strconv.AppendInt(b, int64(r.Distinct), 10)
	b = append(b, `,"p_max":`...)
	b = appendJSONFloat(b, r.PMax)
	b = append(b, `,"phi":`...)
	b = appendJSONFloat(b, r.Phi)
	b = append(b, `,"max_link":`...)
	b = appendLinkJSON(b, r.MaxLink)
	b = append(b, `,"suspect_link":`...)
	b = appendLinkJSON(b, r.Suspect)
	if len(r.Top) > 0 {
		b = append(b, `,"top_links":[`...)
		for i, lc := range r.Top {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"link":`...)
			b = appendLinkJSON(b, lc.Link)
			b = append(b, `,"count":`...)
			b = strconv.AppendInt(b, int64(lc.Count), 10)
			b = append(b, `,"p":`...)
			b = appendJSONFloat(b, lc.P)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n')
}

// AppendErrorResponse appends an ErrorResponse body: the bytes of every
// samserve error answer and failed stream line, which samgate reuses for its
// own so the two can never word a failure differently.
func AppendErrorResponse(b []byte, msg string) []byte {
	b = append(b, `{"error":`...)
	b = appendJSONString(b, msg)
	return append(b, '}', '\n')
}

// writeBuf ships a pre-encoded JSON body. The status line is already on the
// wire when a write fails (client gone, connection reset), so the failure is
// counted and logged instead of silently dropped.
func (s *Service) writeBuf(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = ctJSON
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.responseFailed("write", err)
	}
}

// responseFailed records a response body that could not be delivered after
// the status was committed — the one failure mode a JSON API cannot report
// in-band, so it must at least be observable.
func (s *Service) responseFailed(stage string, err error) {
	s.metrics.respErrors.Inc()
	s.logger.Warn("response body failed after status was sent", "stage", stage, "err", err)
}
