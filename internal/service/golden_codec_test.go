package service

// Golden wire-format tests: the append encoders replaced json.NewEncoder on
// the serving hot paths, and the replacement is only safe if the bytes can
// never drift. Every response type the fast path can emit is rendered both
// ways here — including the float formats, HTML escaping, and trailing
// newline encoding/json is opinionated about — and compared byte for byte.

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"samnet/internal/obs"
)

// encGolden renders v exactly as the old writeJSON did.
func encGolden(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("golden encode: %v", err)
	}
	return buf.Bytes()
}

// goldenFloats are the values most likely to expose a formatting divergence:
// format-switch boundaries (1e-6, 1e21), negative zero, subnormals, full
// precision, and exponents whose leading zero encoding/json trims.
var goldenFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1.0 / 3.0, 2.0 / 3.0,
	1e-6, 9.999999e-7, 1e-7, 5e-324, 1e20, 1e21, 1.000001e21, -1e21,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	0.9999999999999999, 123456.789, -2.5e-7, 3.14159e100, -7e-12,
}

// goldenStrings cover the fast path (plain ASCII) and every slow-path
// class: escapes, HTML characters, non-ASCII, and invalid UTF-8.
var goldenStrings = []string{
	"", "bench", "profile-1", "with space",
	`quote"and\slash`, "tab\tnewline\ncr\r", "ctrl\x01\x1f",
	"<script>&amp;", "a<b>c&d", "héllo wörld", "日本語", "\xff\xfe", "a\xffb",
}

func goldenVerdict(i int) VerdictJSON {
	f := func(j int) float64 { return goldenFloats[(i+j)%len(goldenFloats)] }
	return VerdictJSON{
		Decision: []string{"normal", "suspicious", "attacked"}[i%3],
		Lambda:   f(0), ZPMax: f(1), ZPhi: f(2), TV: f(3), PMax: f(4), Phi: f(5),
		Routes: i * 7, N: i * 31, SuspectLink: LinkJSON{A: i, B: -i},
		Suspects: [2]int{i, i * 13},
	}
}

func TestAppendEncodersGolden(t *testing.T) {
	t.Run("detect", func(t *testing.T) {
		for i, profile := range goldenStrings {
			v := goldenVerdict(i)
			want := encGolden(t, DetectResponse{Profile: profile, Verdict: v})
			got := appendDetectResponse(nil, []byte(profile), v, nil)
			if !bytes.Equal(got, want) {
				t.Errorf("detect profile=%q:\n got %s\nwant %s", profile, got, want)
			}
		}
	})

	t.Run("verdict-floats", func(t *testing.T) {
		// Sweep every golden float through every verdict field position.
		for i := range goldenFloats {
			v := goldenVerdict(i)
			want := encGolden(t, DetectResponse{Profile: "p", Verdict: v})
			got := appendDetectResponse(nil, []byte("p"), v, nil)
			if !bytes.Equal(got, want) {
				t.Errorf("verdict %d:\n got %s\nwant %s", i, got, want)
			}
		}
	})

	t.Run("detect-explain", func(t *testing.T) {
		// A decision record takes the encoding/json fallback; the line must
		// still be exactly what the old writeJSON emitted.
		for i, profile := range goldenStrings {
			v := goldenVerdict(i)
			rec := &obs.Decision{
				Profile: profile, Routes: v.Routes, N: v.N, PMax: v.PMax, Phi: v.Phi, ZPMax: v.ZPMax,
				Links:    []obs.DecisionLink{{A: i, B: i + 1, Count: 3, P: v.PMax}},
				Suspect:  obs.DecisionLink{A: v.Suspects[0], B: v.Suspects[1]},
				Decision: v.Decision,
			}
			want := encGolden(t, DetectResponse{Profile: profile, Verdict: v, Explain: rec})
			got := appendDetectResponse([]byte("prefix"), []byte(profile), v, rec)
			if !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Errorf("detect-explain profile=%q:\n got %s\nwant %s", profile, got, want)
			}
		}
	})

	t.Run("batch", func(t *testing.T) {
		for _, n := range []int{0, 1, 3} {
			verdicts := make([]VerdictJSON, n)
			for i := range verdicts {
				verdicts[i] = goldenVerdict(i)
			}
			// All-ok: errors omitted entirely, byte-identical to the old
			// BatchDetectResponse without the Errors field.
			want := encGolden(t, BatchDetectResponse{Profile: "batch", Verdicts: verdicts})
			got := appendBatchDetectResponse(nil, []byte("batch"), verdicts, make([]string, n))
			if !bytes.Equal(got, want) {
				t.Errorf("batch n=%d all-ok:\n got %s\nwant %s", n, got, want)
			}
			if n == 0 {
				continue
			}
			// Partial failure: parallel errors array present.
			errs := make([]string, n)
			errs[n-1] = `profile "batch": profile has no training runs yet`
			want = encGolden(t, BatchDetectResponse{Profile: "batch", Verdicts: verdicts, Errors: errs})
			got = appendBatchDetectResponse(nil, []byte("batch"), verdicts, errs)
			if !bytes.Equal(got, want) {
				t.Errorf("batch n=%d partial:\n got %s\nwant %s", n, got, want)
			}
		}
	})

	t.Run("analyze", func(t *testing.T) {
		base := AnalyzeResponse{
			Routes: 12, N: 48, Distinct: 31, PMax: 0.25, Phi: 1.0 / 3.0,
			MaxLink: LinkJSON{A: 4, B: 17}, Suspect: LinkJSON{A: 17, B: 4},
		}
		for _, top := range [][]LinkCountJSON{
			nil,
			{{Link: LinkJSON{A: 1, B: 2}, Count: 9, P: 0.75}},
			{{Link: LinkJSON{A: 1, B: 2}, Count: 9, P: 1e-7}, {Link: LinkJSON{A: 0, B: 0}, Count: 0, P: 0}},
		} {
			r := base
			r.Top = top
			want := encGolden(t, r)
			got := appendAnalyzeResponse(nil, r)
			if !bytes.Equal(got, want) {
				t.Errorf("analyze top=%d:\n got %s\nwant %s", len(top), got, want)
			}
		}
	})

	t.Run("error", func(t *testing.T) {
		for _, msg := range goldenStrings {
			want := encGolden(t, ErrorResponse{Error: msg})
			got := AppendErrorResponse(nil, msg)
			if !bytes.Equal(got, want) {
				t.Errorf("error %q:\n got %s\nwant %s", msg, got, want)
			}
		}
	})

	t.Run("floats-raw", func(t *testing.T) {
		for _, f := range goldenFloats {
			want, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
				t.Errorf("float %v: got %s want %s", f, got, want)
			}
		}
	})
}
