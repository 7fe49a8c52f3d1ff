package main

import (
	"strings"
	"testing"
)

func TestRunFailsWithoutAuthority(t *testing.T) {
	if err := run([]string{"-authority", "127.0.0.1:1", "-server", "127.0.0.1:1"}); err == nil {
		t.Error("run succeeded with no authority listening")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunRejectsBatchOutsideSamples: a batch size that leaves no whole
// batch would submit nothing, so run refuses it before dialing anyone.
func TestRunRejectsBatchOutsideSamples(t *testing.T) {
	for _, args := range [][]string{
		{"-samples", "10", "-batch", "16"},
		{"-samples", "10", "-batch", "0"},
		{"-samples", "10", "-batch", "-1"},
		{"-samples", "0"},
	} {
		err := run(append(args, "-authority", "127.0.0.1:1", "-server", "127.0.0.1:1"))
		if err == nil || !strings.Contains(err.Error(), "-batch") || !strings.Contains(err.Error(), "-samples") {
			t.Errorf("run(%v) = %v, want an error naming -batch and -samples", args, err)
		}
	}
}
