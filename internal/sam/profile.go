package sam

import (
	"encoding/json"
	"errors"
	"fmt"

	"samnet/internal/routing"
	"samnet/internal/stats"
)

// DefaultPMFBins is the binning used for link-frequency PMF profiles:
// 50 bins of width 2% over [0,1].
const DefaultPMFBins = 50

// Profile is the trained normal-condition profile the local detection
// module compares live statistics against. The paper trains it per
// (topology, transmission range, routing algorithm) because the nominal
// values of p_max and phi depend on all three.
type Profile struct {
	// Label records what the profile was trained on, e.g.
	// "cluster-1tier/MR".
	Label string

	// Runs is the number of training route sets the profile was built from;
	// it survives serialization so a preloaded profile still reports how
	// much data backs it.
	Runs int

	// PMax and Phi summarize the training distribution of the two features.
	PMax stats.Summary
	Phi  stats.Summary

	// PMF is the trained distribution of per-link relative frequencies
	// n_i/N under normal conditions.
	PMF *stats.PMF
}

// Trainer accumulates normal-condition route discoveries into a Profile.
type Trainer struct {
	label   string
	pmaxAcc stats.Accumulator
	phiAcc  stats.Accumulator
	pmf     *stats.PMF
}

// NewTrainer returns a trainer with the given label and PMF binning
// (bins <= 0 selects DefaultPMFBins).
func NewTrainer(label string, bins int) *Trainer {
	if bins <= 0 {
		bins = DefaultPMFBins
	}
	return &Trainer{label: label, pmf: stats.NewPMF(bins)}
}

// Observe folds the statistics of one normal-condition route set into the
// training state.
func (t *Trainer) Observe(s Stats) {
	if s.N == 0 {
		return // an empty discovery carries no information
	}
	t.pmaxAcc.Add(s.PMax)
	t.phiAcc.Add(s.Phi)
	for _, lc := range s.ByLink {
		t.pmf.Add(lc.P)
	}
}

// ObserveRoutes is shorthand for Observe(Analyze(routes)).
func (t *Trainer) ObserveRoutes(routes []routing.Route) { t.Observe(Analyze(routes)) }

// Runs returns how many route sets have been observed.
func (t *Trainer) Runs() int { return t.pmaxAcc.N() }

// Profile freezes the training state. It returns an error if no runs were
// observed: a detector cannot be built from nothing.
func (t *Trainer) Profile() (*Profile, error) {
	if t.pmaxAcc.N() == 0 {
		return nil, errors.New("sam: profile requires at least one training run")
	}
	return &Profile{
		Label: t.label,
		Runs:  t.pmaxAcc.N(),
		PMax:  t.pmaxAcc.Summarize(),
		Phi:   t.phiAcc.Summarize(),
		PMF:   t.pmf.Clone(),
	}, nil
}

// Clone returns a deep copy of p, sharing no mutable state with the
// original. A profile handed to concurrent readers (e.g. the detection
// service's store snapshots) should be cloned once per owner so a later
// retrain can never race an in-flight evaluation.
func (p *Profile) Clone() *Profile {
	c := *p
	if p.PMF != nil {
		c.PMF = p.PMF.Clone()
	}
	return &c
}

// profileJSON is the serialized form of a Profile. Runs is omitempty so
// profiles written before the field existed (and hand-built ones) still
// decode; they report zero training runs.
type profileJSON struct {
	Label     string        `json:"label"`
	Runs      int           `json:"runs,omitempty"`
	PMax      stats.Summary `json:"pmax"`
	Phi       stats.Summary `json:"phi"`
	PMFCounts []int         `json:"pmf_counts"`
	PMFTotal  int           `json:"pmf_total"`
}

// ErrNoPMF reports a marshal of a profile that carries no trained PMF — a
// zero-value or hand-built Profile. UnmarshalJSON rejects PMF-less documents,
// so refusing to emit one keeps every marshaled profile loadable.
var ErrNoPMF = errors.New("sam: profile has no PMF")

// MarshalJSON implements json.Marshaler. A profile without a PMF answers
// ErrNoPMF (wrapped by encoding/json in a *json.MarshalerError) instead of
// panicking on the nil dereference.
func (p *Profile) MarshalJSON() ([]byte, error) {
	if p.PMF == nil {
		return nil, fmt.Errorf("%w (label %q)", ErrNoPMF, p.Label)
	}
	return json.Marshal(profileJSON{
		Label:     p.Label,
		Runs:      p.Runs,
		PMax:      p.PMax,
		Phi:       p.Phi,
		PMFCounts: p.PMF.Counts,
		PMFTotal:  p.PMF.Total,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Profile) UnmarshalJSON(data []byte) error {
	var j profileJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.PMFCounts) == 0 {
		return fmt.Errorf("sam: profile %q has no PMF bins", j.Label)
	}
	sum := 0
	for _, c := range j.PMFCounts {
		if c < 0 {
			return fmt.Errorf("sam: profile %q has negative PMF count", j.Label)
		}
		sum += c
	}
	if sum != j.PMFTotal {
		return fmt.Errorf("sam: profile %q PMF total %d does not match counts sum %d",
			j.Label, j.PMFTotal, sum)
	}
	if j.Runs < 0 {
		return fmt.Errorf("sam: profile %q has negative run count", j.Label)
	}
	p.Label = j.Label
	p.Runs = j.Runs
	p.PMax = j.PMax
	p.Phi = j.Phi
	p.PMF = &stats.PMF{Counts: j.PMFCounts, Total: j.PMFTotal}
	return nil
}
