package main

import (
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestResolveExperiments: -run resolves as a whole, so one unknown ID
// rejects the list before main runs or forks anything.
func TestResolveExperiments(t *testing.T) {
	got, err := resolveExperiments("fig5a, abltl2")
	if err != nil || len(got) != 2 || got[0].ID != "fig5a" || got[1].ID != "abltl2" {
		t.Fatalf("resolveExperiments(fig5a, abltl2) = %v, %v", got, err)
	}
	if all, err := resolveExperiments("all"); err != nil || len(all) != len(exp.All) {
		t.Fatalf("resolveExperiments(all) = %d experiments, %v", len(all), err)
	}
	got, err = resolveExperiments("fig5a,abltl2,typo")
	if err == nil || got != nil || !strings.Contains(err.Error(), `"typo"`) {
		t.Fatalf("resolveExperiments with an unknown ID = %v, %v; want nil and an error naming it", got, err)
	}
}
