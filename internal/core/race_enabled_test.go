//go:build race

package core

// raceEnabled reports whether the race detector is instrumenting this
// build. Its shadow-memory bookkeeping allocates on paths that are
// allocation-free in a normal build, so the alloc-budget tests skip.
const raceEnabled = true
