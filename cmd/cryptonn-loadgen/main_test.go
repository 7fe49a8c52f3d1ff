package main

import (
	"strings"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
)

func TestRunFailsWithoutAuthority(t *testing.T) {
	// Nothing listens on this address; the dial must fail cleanly.
	err := run([]string{"-authority", "127.0.0.1:1", "-server", "127.0.0.1:1"})
	if err == nil {
		t.Error("run succeeded with no authority")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunRejectsNonPositiveLoad(t *testing.T) {
	for _, args := range [][]string{
		{"-clients", "0"},
		{"-requests", "0"},
		{"-samples", "-1"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "positive") {
			t.Errorf("args %v: err = %v, want positive-load validation", args, err)
		}
	}
}

// A negative -seed still picks every support index inside the feature
// range: the support hash runs in uint64.
func TestSyntheticSparseBatchNegativeSeed(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := syntheticSparseBatch(client, 50, 3, 2, 0.1, -7); err != nil {
		t.Fatal(err)
	}
}
