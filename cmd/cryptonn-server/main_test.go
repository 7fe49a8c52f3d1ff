package main

import (
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunRejectsNonPositive: service.Config reads 0 as its default, so run
// refuses zero and negative -epochs, -expect and -lr before dialing the
// authority (port 1: nothing listens there).
func TestRunRejectsNonPositive(t *testing.T) {
	for _, args := range [][]string{
		{"-epochs", "0"},
		{"-epochs", "-2"},
		{"-expect", "0"},
		{"-expect", "-1"},
		{"-lr", "0"},
		{"-lr", "-0.1"},
		{"-lr", "NaN"},
	} {
		err := run(append(args, "-authority", "127.0.0.1:1"))
		if err == nil || !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("run(%v) = %v, want a must-be-positive error", args, err)
		}
	}
}

func TestRunFailsWithoutAuthority(t *testing.T) {
	if err := run([]string{"-authority", "127.0.0.1:1", "-listen", "127.0.0.1:0"}); err == nil {
		t.Error("run succeeded with no authority listening")
	}
}
