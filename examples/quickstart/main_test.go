package main

import "testing"

// TestRun runs the example end to end, so one that breaks at run time
// fails go test.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
