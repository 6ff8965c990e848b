package core

import (
	"flag"

	"repro/internal/placement"
)

// BindFlags registers on fs the system knobs every command-line front-end
// spells the same way and returns the function that writes the ones the
// command line set into a Config. A flag left unset leaves its field
// untouched, so the same function serves a command whose Config starts from
// the defaults (tm2c-sim) and one that forces knobs onto Configs an
// experiment already filled in (tm2c-bench, through exp.Overrides.Sys).
// Enum values go through the Parse* functions while the command line is
// parsed, so a bad value fails there with the accepted spellings. Call the
// returned function only after fs has been parsed.
func BindFlags(fs *flag.FlagSet) func(*Config) {
	var f Config // parsed flag values land in the fields they will fill
	fs.Func("backend", "execution backend: sim (deterministic simulator, virtual time; the default) | live (real goroutines, wall-clock) | net (cores spread over OS processes)",
		func(v string) (err error) { f.Backend, err = ParseBackend(v); return })
	fs.Func("protocol", "read-visibility protocol: visible (per-read DTM round trips; the default) | tl2 (invisible reads, commit-time validation)",
		func(v string) (err error) { f.Protocol, err = ParseProtocol(v); return })
	fs.Func("placement", "object→DTM-node placement policy: hash (the default) | hier",
		func(v string) (err error) { f.Placement, err = placement.Parse(v); return })
	fs.Uint64Var(&f.Seed, "seed", 1, "simulation seed")
	return func(c *Config) {
		fs.Visit(func(fl *flag.Flag) { // set flags only
			switch fl.Name {
			case "backend":
				c.Backend = f.Backend
			case "protocol":
				c.Protocol = f.Protocol
			case "placement":
				c.Placement = f.Placement
			case "seed":
				c.Seed = f.Seed
			}
		})
	}
}
