package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"samnet/internal/cli"
	"samnet/internal/sam"
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

// TestTrainMatchesSequentialFold: a training request analyzes its sets
// before it takes the profile's lock, then observes them in request order,
// so across two requests the profile it serves is byte for byte the one a
// sam.Trainer folds from the same sets one at a time.
func TestTrainMatchesSequentialFold(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	mux := svc.Handler()
	raw := [][][][]int{genSets(30, false, 1000), genSets(30, false, 9000)}
	tr := sam.NewTrainer("fold", sam.DefaultPMFBins)
	for _, req := range raw {
		body, err := json.Marshal(TrainRequest{RouteSets: req})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/profiles/fold/train", bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("train: %d %s", rec.Code, rec.Body)
		}
		sets, err := decodeRouteSets(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range sets {
			tr.ObserveRoutes(set)
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/profiles/fold", nil))

	p, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteSnapshotRecord(&want, ProfileResponse{
		Name: "fold", Runs: tr.Runs(), PMaxMean: p.PMax.Mean, PhiMean: p.Phi.Mean, Profile: p,
	}); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() {
		t.Errorf("trained profile\n%s\ndiffers from the sequential fold's\n%s", rec.Body, want.String())
	}
}
