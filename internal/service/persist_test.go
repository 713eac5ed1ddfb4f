package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"samnet/internal/sam"
)

// adaptServer trains "test" and drifts its adaptive means with updating
// detects, so persistence tests exercise state beyond the trained profile.
func adaptServer(t *testing.T, cfg Config) (string, *Service) {
	t.Helper()
	ts, svc := newTrainedServer(t, cfg)
	for i, set := range genSets(5, false, 9000) {
		resp, _ := postJSON(t, ts.URL+"/v1/detect",
			mustJSON(t, DetectRequest{Profile: "test", Routes: set}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("adapt detect %d: %s", i, resp.Status)
		}
	}
	return ts.URL, svc
}

func getProfileBody(t *testing.T, url, name string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/profiles/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get profile %q: %s", name, resp.Status)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes()
}

// TestSnapshotRoundTrip is the durability contract end to end: a trained,
// adapted service snapshots to disk; a fresh service restores the file; the
// exported profile document (trained state + adaptive means) and the verdicts
// of a fixed probe are identical across the restart.
func TestSnapshotRoundTrip(t *testing.T) {
	url1, svc1 := adaptServer(t, Config{})
	path := filepath.Join(t.TempDir(), "state.jsonl")
	n, err := svc1.SaveSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("snapshot wrote %d profiles, want 1", n)
	}
	before := getProfileBody(t, url1, "test")

	svc2 := New(Config{})
	ts2 := httptest.NewServer(svc2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		svc2.Close()
	})
	st, err := svc2.RestoreSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.Skipped != 0 {
		t.Fatalf("restore stats = %+v, want 1 restored 0 skipped", st)
	}
	after := getProfileBody(t, ts2.URL, "test")
	if !bytes.Equal(before, after) {
		t.Fatalf("profile changed across snapshot/restore:\n before %s\n after  %s", before, after)
	}

	// The same probe, scored without updating, must answer identically.
	probe := mustJSON(t, DetectRequest{Profile: "test", Routes: genSets(1, true, 12000)[0],
		Update: new(bool)})
	_, want := postJSON(t, url1+"/v1/detect", probe)
	_, got := postJSON(t, ts2.URL+"/v1/detect", probe)
	if !bytes.Equal(want, got) {
		t.Fatalf("verdict changed across snapshot/restore:\n before %s\n after  %s", want, got)
	}
}

// TestSnapshotAtomicOverwrite: saving over an existing snapshot leaves no
// temp debris and the file always parses completely.
func TestSnapshotAtomicOverwrite(t *testing.T) {
	_, svc := adaptServer(t, Config{})
	dir := t.TempDir()
	path := filepath.Join(dir, "state.jsonl")
	for i := 0; i < 3; i++ {
		if _, err := svc.SaveSnapshot(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.jsonl" {
		t.Fatalf("snapshot dir holds %v, want only state.jsonl", entries)
	}
	svc2 := New(Config{})
	defer svc2.Close()
	st, err := svc2.RestoreSnapshot(path)
	if err != nil || st.Restored != 1 || st.Skipped != 0 {
		t.Fatalf("restore = %+v, %v", st, err)
	}
}

// TestSnapshotTruncation is the crash-recovery guarantee: for every possible
// truncation point of a multi-profile snapshot, restore installs exactly the
// complete records before the cut and never errors out of the boot.
func TestSnapshotTruncation(t *testing.T) {
	p := benchProfile(t, "seed", 2000)
	var full bytes.Buffer
	if err := WriteSnapshotHeader(&full); err != nil {
		t.Fatal(err)
	}
	const profiles = 4
	for i := 0; i < profiles; i++ {
		q := p.Clone()
		q.Label = fmt.Sprintf("p%d", i)
		rec := ProfileResponse{Name: q.Label, Runs: q.Runs,
			PMaxMean: q.PMax.Mean, PhiMean: q.Phi.Mean, Profile: q}
		if err := WriteSnapshotRecord(&full, rec); err != nil {
			t.Fatal(err)
		}
	}
	blob := full.Bytes()
	headerLen := bytes.IndexByte(blob, '\n') + 1

	// Complete record boundaries, to know how many profiles a prefix holds.
	var bounds []int
	for off := headerLen; ; {
		i := bytes.IndexByte(blob[off:], '\n')
		if i < 0 {
			break
		}
		off += i + 1
		bounds = append(bounds, off)
	}
	if len(bounds) != profiles {
		t.Fatalf("found %d record boundaries, want %d", len(bounds), profiles)
	}

	for cut := headerLen; cut <= len(blob); cut++ {
		// A record is complete when all its content bytes fit under the cut;
		// the trailing newline is optional because the scanner yields a final
		// unterminated line.
		complete := 0
		for _, b := range bounds {
			if b-1 <= cut {
				complete++
			}
		}
		fresh := New(Config{})
		st, err := fresh.ReadSnapshot(bytes.NewReader(blob[:cut]))
		if err != nil {
			t.Fatalf("cut %d: restore errored: %v", cut, err)
		}
		if st.Restored != complete {
			t.Fatalf("cut %d: restored %d profiles, want %d (skipped %d, last %v)",
				cut, st.Restored, complete, st.Skipped, st.LastError)
		}
		lastWhole := headerLen
		if complete > 0 {
			lastWhole = bounds[complete-1] // position after the record's newline
		}
		if torn := cut > lastWhole; torn && st.Skipped == 0 {
			t.Fatalf("cut %d: torn tail not counted as skipped", cut)
		}
		fresh.Close()
	}
}

// TestSnapshotHeaderStrict: a file that is not a known snapshot restores
// nothing — wrong magic, wrong version, or garbage first line all refuse.
func TestSnapshotHeaderStrict(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	for _, in := range []string{
		"",
		"not json\n",
		`{"format":"other","version":1}` + "\n",
		`{"format":"samserve-snapshot","version":99}` + "\n",
	} {
		st, err := svc.ReadSnapshot(strings.NewReader(in))
		if err == nil {
			t.Errorf("header %q: restore accepted", in)
		}
		if st.Restored != 0 {
			t.Errorf("header %q: restored %d profiles", in, st.Restored)
		}
	}
}

// TestSnapshotBadRecords: invalid records (garbage JSON, missing profile,
// out-of-domain means) are skipped and counted while valid neighbours — before
// and after — restore.
func TestSnapshotBadRecords(t *testing.T) {
	p := benchProfile(t, "ok", 3000)
	good := func(name string) string {
		return mustJSONT(t, ProfileResponse{Name: name, Runs: p.Runs, PMaxMean: 0.5, PhiMean: 0.5, Profile: p})
	}
	in := strings.Join([]string{
		`{"format":"samserve-snapshot","version":1}`,
		good("a"),
		`{"name":"no-profile","runs":3}`,
		`{broken`,
		`{"name":"bad-mean","runs":1,"adaptive_pmax_mean":1.5,"adaptive_phi_mean":0.2,"profile":` + mustJSONT(t, p) + `}`,
		good("b"),
		"",
	}, "\n")
	svc := New(Config{})
	defer svc.Close()
	st, err := svc.ReadSnapshot(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 2 || st.Skipped != 3 {
		t.Fatalf("stats = %+v, want 2 restored 3 skipped", st)
	}
	if st.LastError == nil || !strings.Contains(st.LastError.Error(), "line") {
		t.Fatalf("LastError = %v, want line-numbered cause", st.LastError)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := svc.store.get(name); err != nil {
			t.Errorf("profile %q did not restore: %v", name, err)
		}
	}
}

func mustJSONT(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// FuzzSnapshotRestore: arbitrary bytes must never panic the restore path, and
// everything it reports restored must actually be resident and scoreable.
func FuzzSnapshotRestore(f *testing.F) {
	var seed bytes.Buffer
	WriteSnapshotHeader(&seed)
	f.Add(seed.Bytes())
	f.Add([]byte(`{"format":"samserve-snapshot","version":1}` + "\n" +
		`{"name":"p","runs":2,"adaptive_pmax_mean":0.4,"adaptive_phi_mean":0.1,` +
		`"profile":{"label":"p","runs":2,"pmax":{"N":2,"Mean":0.4},"phi":{"N":2,"Mean":0.1},` +
		`"pmf_counts":[1,1],"pmf_total":2}}` + "\n"))
	f.Add([]byte("{}\n{}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		svc := New(Config{})
		defer svc.Close()
		st, err := svc.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return // refused outright; nothing may be resident
		}
		// Duplicate names overwrite in place, so residency can be below the
		// restored count but never above it.
		names := svc.store.names()
		if len(names) > st.Restored {
			t.Fatalf("restored %d but %d resident", st.Restored, len(names))
		}
		for _, name := range names {
			e, err := svc.store.get(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, _, err := e.snapshot(); err != nil {
				t.Fatalf("restored profile %q not snapshotable: %v", name, err)
			}
		}
	})
}

// benchProfile trains a small real profile directly (no HTTP) for tests and
// benchmarks that need raw records.
func benchProfile(tb testing.TB, label string, seedBase uint64) *sam.Profile {
	tb.Helper()
	tr := sam.NewTrainer(label, 0)
	sets, err := decodeRouteSets(genSets(6, false, seedBase))
	if err != nil {
		tb.Fatal(err)
	}
	for _, set := range sets {
		tr.ObserveRoutes(set)
	}
	p, err := tr.Profile()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// benchService builds a service holding n trained profiles.
func benchService(b *testing.B, n int) *Service {
	b.Helper()
	svc := New(Config{})
	b.Cleanup(svc.Close)
	p := benchProfile(b, "bench", 4000)
	for i := 0; i < n; i++ {
		q := p.Clone()
		q.Label = fmt.Sprintf("bench-%03d", i)
		if err := svc.RestoreProfile(q.Label, q, q.PMax.Mean, q.Phi.Mean); err != nil {
			b.Fatal(err)
		}
	}
	return svc
}

func BenchmarkSnapshotWrite(b *testing.B) {
	svc := benchService(b, 128)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		n, err := svc.WriteSnapshot(&buf)
		if err != nil || n != 128 {
			b.Fatalf("wrote %d profiles, err %v", n, err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkSnapshotRestore(b *testing.B) {
	svc := benchService(b, 128)
	var buf bytes.Buffer
	if _, err := svc.WriteSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := New(Config{})
		st, err := fresh.ReadSnapshot(bytes.NewReader(blob))
		if err != nil || st.Restored != 128 {
			b.Fatalf("restored %d, err %v", st.Restored, err)
		}
		fresh.Close()
	}
}
