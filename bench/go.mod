// The benchmark is its own module so the repository's tier-1 build and tests
// never depend on it; the "repro/" path prefix is what lets it import the
// repository's internal packages through the replace below.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
