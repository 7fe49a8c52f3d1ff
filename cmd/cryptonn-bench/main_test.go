package main

import (
	"strings"
	"testing"
)

func TestRunCommExperiment(t *testing.T) {
	if err := run([]string{"-exp", "comm"}); err != nil {
		t.Fatalf("run -exp comm: %v", err)
	}
}

func TestRunUnknownExperimentFails(t *testing.T) {
	// A typo must not run nothing and exit 0: it is an error that names
	// every valid experiment.
	err := run([]string{"-exp", "does-not-exist"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range experimentNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestRunTrainingExperiments(t *testing.T) {
	for _, exp := range []string{"fig6", "table3"} {
		if err := run([]string{"-exp", exp, "-pool", "4", "-hidden", "4"}); err != nil {
			t.Fatalf("run -exp %s: %v", exp, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunBadArchFails(t *testing.T) {
	if err := run([]string{"-exp", "fig6", "-arch", "transformer", "-pool", "4", "-hidden", "4"}); err == nil {
		t.Error("unknown architecture accepted")
	}
}
