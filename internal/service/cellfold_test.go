package service

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"samnet/internal/cli"
)

// TestTrainBatchMatchesCLIFold: the profile /v1/train/batch installs is the
// cli.Train fold's profile for the same scenario, seed and runs, byte for
// byte in the snapshot-record form samtrain -snapshot writes.
func TestTrainBatchMatchesCLIFold(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	mux := svc.Handler()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/train/batch",
		strings.NewReader(`{"runs":6,"seed":11,"scenarios":[{"topo":"uniform6x6","tier":2,"protocol":"smr"}]}`)))
	if rec.Code != 200 {
		t.Fatalf("train/batch: %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/profiles/uniform6x6-2tier-SMR", nil))

	sc, err := cli.Resolve("uniform6x6", 2, "smr")
	if err != nil {
		t.Fatal(err)
	}
	tr := cli.Train([]cli.Scenario{sc}, 11, 6, 1, nil)[0]
	p, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteSnapshotRecord(&want, ProfileResponse{
		Name: sc.ProfileName(), Runs: tr.Runs(), PMaxMean: p.PMax.Mean, PhiMean: p.Phi.Mean, Profile: p,
	}); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() {
		t.Errorf("installed profile\n%s\ndiffers from the cli fold's\n%s", rec.Body, want.String())
	}
}
