package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"samnet/internal/routing"
	"samnet/internal/sam"
)

// Errors the store maps to HTTP statuses.
var (
	// errUnknownProfile: the named profile does not exist (404).
	errUnknownProfile = errors.New("unknown profile")
	// errUntrained: the profile exists but has no training runs yet (409).
	errUntrained = errors.New("profile has no training runs yet")
	// errProfileBuild: training data was observed but building the profile
	// (or its detector) failed — the submitted data is unprocessable (422).
	errProfileBuild = errors.New("profile construction failed")
)

// entry is one named profile: its trainer, and the detector rebuilt from the
// trainer after every training call. The mutex serializes training and
// scoring, because the detector's adaptive means (the paper's low-pass
// update, equations 8 and 9) mutate on every scored route set.
type entry struct {
	mu       sync.Mutex
	name     string
	trainer  *sam.Trainer
	detector *sam.Detector
	// lastAccess is the wall clock (unix nanos) of the entry's most recent
	// store lookup; the idle-TTL sweeper and the LRU cap read it to pick
	// eviction victims.
	lastAccess atomic.Int64
}

// touch stamps the entry as just-used.
func (e *entry) touch() { e.lastAccess.Store(time.Now().UnixNano()) }

// train folds normal-condition route sets into the trainer and rebuilds the
// detector over the refreshed profile. It returns the total training runs.
// Every set is analyzed before the lock is taken, as score's callers do, so
// detects on this profile wait only for the observations and the rebuild.
// The sets are observed in request order: the trained state is the one a
// one-at-a-time fold gives (TestTrainMatchesSequentialFold).
//
// Empty input is lenient: when nothing has ever been observed (e.g. every
// submitted set was empty), the entry simply stays untrained. A profile
// build that fails with observations on the books is a real error and
// propagates as errProfileBuild so the handler can answer 422 instead of
// silently keeping a stale (or absent) detector.
func (e *entry) train(sets [][]routing.Route) (int, error) {
	stats := make([]sam.Stats, len(sets))
	for i, set := range sets {
		stats[i] = sam.Analyze(set)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range stats {
		e.trainer.Observe(s)
	}
	runs := e.trainer.Runs()
	if runs == 0 {
		return 0, nil
	}
	p, err := e.trainer.Profile()
	if err != nil {
		return runs, fmt.Errorf("%w: %v", errProfileBuild, err)
	}
	e.detector = sam.NewDetector(p, sam.DetectorConfig{})
	return runs, nil
}

// score evaluates already-analyzed statistics against the detector and,
// when update is set, applies the adaptive profile update with the verdict's
// soft decision lambda. Analysis itself is pure and happens outside the
// lock, so the critical section is only the stateful evaluate+update pair.
func (e *entry) score(s sam.Stats, update bool) (sam.Verdict, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.detector == nil {
		return sam.Verdict{}, errUntrained
	}
	v := e.detector.Evaluate(s)
	if update {
		e.detector.Update(s, v.Lambda)
	}
	return v, nil
}

// snapshot returns a race-free deep copy of the trained profile plus the
// current adaptive feature means. The run count is the local trainer's when
// the profile was trained here; for a profile installed via load (samserve's
// -profiles preload) the local trainer is empty, so the count recorded in
// the profile itself is reported instead of a misleading zero.
func (e *entry) snapshot() (p *sam.Profile, pmaxMean, phiMean float64, runs int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.detector == nil {
		return nil, 0, 0, e.trainer.Runs(), errUntrained
	}
	runs = e.trainer.Runs()
	if runs == 0 {
		runs = e.detector.Profile().Runs
	}
	pmaxMean, phiMean = e.detector.AdaptiveMeans()
	return e.detector.Profile().Clone(), pmaxMean, phiMean, runs, nil
}

// load installs an externally trained profile (e.g. a samtrain JSON file),
// replacing any detector the entry had. The profile is cloned so the caller
// keeps ownership of its copy. Callers must go through store.load so the
// install is re-checked for residency against a concurrent eviction.
func (e *entry) load(p *sam.Profile) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.detector = sam.NewDetector(p.Clone(), sam.DetectorConfig{})
}

// restore is load plus the adaptive feature means captured by a snapshot, so
// a restart resumes the low-pass filter exactly where the previous process
// left it instead of silently resetting to the trained means.
func (e *entry) restore(p *sam.Profile, pmaxMean, phiMean float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.detector = sam.NewDetector(p.Clone(), sam.DetectorConfig{})
	e.detector.SetAdaptiveMeans(pmaxMean, phiMean)
}

// retrain replaces the entry's whole training state with a finished trainer —
// batch training's semantics are declarative (the grid defines the profile),
// so re-running the same grid converges on the identical state instead of
// accumulating. A trainer with no observations leaves the entry untouched.
func (e *entry) retrain(tr *sam.Trainer) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	runs := tr.Runs()
	if runs == 0 {
		return 0, nil
	}
	p, err := tr.Profile()
	if err != nil {
		return runs, fmt.Errorf("%w: %v", errProfileBuild, err)
	}
	e.trainer = tr
	e.detector = sam.NewDetector(p, sam.DetectorConfig{})
	return runs, nil
}

// storeShards is the profile store's shard count.
const storeShards = 16

// store is the sharded profile registry. Profile names hash onto shards so
// concurrent requests for different profiles rarely contend on the same
// lock; the per-entry mutex then scopes contention to one profile.
type store struct {
	shards [storeShards]storeShard
}

type storeShard struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// newStore builds an empty store. Detectors take the sam defaults and new
// trainers sam.DefaultPMFBins.
func newStore() *store {
	s := &store{}
	for i := range s.shards {
		s.shards[i].entries = make(map[string]*entry)
	}
	return s
}

// shard hashes name with inline FNV-1a: hash/fnv's heap-allocated digest
// state showed up in the detect hot path, and the algorithm is three lines.
// name may still sit in a pooled request buffer.
func shard[S string | []byte](s *store, name S) *storeShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	return &s.shards[h%storeShards]
}

// get is getBytes for a name held as a string, off the detect hot path.
func (s *store) get(name string) (*entry, error) { return s.getBytes([]byte(name)) }

// getBytes returns the named entry or errUnknownProfile, stamping its
// last-access time for the idle-TTL sweeper. The name may still sit in a
// pooled request buffer: the map lookup with an inline string conversion
// compiles without allocating, and the interned e.name gives callers a
// stable string without copying the bytes — the serving hot path's way to
// avoid one string allocation per request.
func (s *store) getBytes(name []byte) (*entry, error) {
	sh := shard(s, name)
	sh.mu.RLock()
	e := sh.entries[string(name)]
	sh.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("%w: %q", errUnknownProfile, name)
	}
	e.touch()
	return e, nil
}

// getOrCreate returns the named entry, creating an empty trainer on first
// use, and stamps its last-access time.
func (s *store) getOrCreate(name string) *entry {
	sh := shard(s, name)
	sh.mu.RLock()
	e := sh.entries[name]
	sh.mu.RUnlock()
	if e != nil {
		e.touch()
		return e
	}
	sh.mu.Lock()
	if e = sh.entries[name]; e == nil {
		e = &entry{name: name, trainer: sam.NewTrainer(name, sam.DefaultPMFBins)}
		sh.entries[name] = e
	}
	sh.mu.Unlock()
	e.touch()
	return e
}

// withResident runs fn against the named entry and retries until the entry is
// still resident afterwards. This closes the load-vs-eviction race: between
// getOrCreate returning an entry and fn mutating it, a concurrent
// DELETE /v1/profiles/{name} (or a TTL/LRU sweep) can remove the entry from
// the shard map, which would silently drop fn's work on an orphan. Re-checking
// residency under the shard lock and retrying linearizes the install after
// the eviction instead of losing it.
func (s *store) withResident(name string, fn func(*entry)) *entry {
	for {
		e := s.getOrCreate(name)
		fn(e)
		sh := shard(s, name)
		sh.mu.RLock()
		resident := sh.entries[name] == e
		sh.mu.RUnlock()
		if resident {
			return e
		}
	}
}

// load installs an external profile under name, surviving concurrent
// evictions (see withResident).
func (s *store) load(name string, p *sam.Profile) {
	s.withResident(name, func(e *entry) { e.load(p) })
}

// restore installs a snapshot record under name — profile plus adaptive
// means — surviving concurrent evictions.
func (s *store) restore(name string, p *sam.Profile, pmaxMean, phiMean float64) {
	s.withResident(name, func(e *entry) { e.restore(p, pmaxMean, phiMean) })
}

// remove evicts the named entry, reporting whether it existed. In-flight
// scores holding the entry pointer finish against their copy; new lookups
// answer errUnknownProfile.
func (s *store) remove(name string) bool {
	sh := shard(s, name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[name]; !ok {
		return false
	}
	delete(sh.entries, name)
	return true
}

// removeIfIdle evicts name only if the map still holds exactly e and e has
// not been touched past cutoff — the sweeper's double-check under the shard
// write lock, so an entry re-created or re-used after the candidate scan is
// never evicted by a stale observation.
func (s *store) removeIfIdle(name string, e *entry, cutoff int64) bool {
	sh := shard(s, name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.entries[name] != e || e.lastAccess.Load() > cutoff {
		return false
	}
	delete(sh.entries, name)
	return true
}

// access is one (name, entry, lastAccess) observation from an eviction scan.
type access struct {
	name string
	e    *entry
	last int64
}

// accesses snapshots every resident entry with its last-access stamp, oldest
// first — the candidate list for TTL and LRU eviction passes.
func (s *store) accesses() []access {
	var out []access
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for name, e := range sh.entries {
			out = append(out, access{name: name, e: e, last: e.lastAccess.Load()})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].last != out[j].last {
			return out[i].last < out[j].last
		}
		return out[i].name < out[j].name
	})
	return out
}

// count returns the number of resident profiles without building the sorted
// name list (the profiles gauge reads it on every scrape).
func (s *store) count() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// names returns every profile name, sorted.
func (s *store) names() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for name := range sh.entries {
			out = append(out, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}
