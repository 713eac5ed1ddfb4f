//go:build race

package samnet_test

// raceEnabled reports whether the race detector is compiled in. Strict
// allocation-count assertions skip under it: sync.Pool deliberately drops a
// quarter of Puts when racing, so pooled paths allocate nondeterministically.
const raceEnabled = true
