package securemat

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"cryptonn/internal/par"
)

// The worker helper's own properties. It lives in internal/par since the
// authority, the comb builder and the serving set-up share it; these tests
// stayed with the package it was written for, whose every secure path still
// runs through it (par_test.go holds the ones about the move: the resolution
// rule and the lowest-failing-chunk error).
var forEachChunk = par.ForEachChunk[struct{}]

// ForEachChunk must visit every index exactly once, for any chunk/worker
// geometry including ragged final chunks.
func TestForEachChunkCoversAllIndices(t *testing.T) {
	for _, tc := range []struct{ total, chunk, workers int }{
		{1, 1, 1}, {10, 3, 1}, {10, 3, 4}, {100, 16, 4},
		{97, 16, 8}, {16, 16, 4}, {5, 100, 2}, {64, 1, 3},
	} {
		var mu sync.Mutex
		seen := make([]int, tc.total)
		err := forEachChunk(tc.total, tc.chunk, tc.workers, par.NoScratch,
			func(start, end int, _ struct{}) error {
				if start < 0 || end > tc.total || start >= end {
					t.Errorf("%+v: bad chunk [%d,%d)", tc, start, end)
				}
				mu.Lock()
				for i := start; i < end; i++ {
					seen[i]++
				}
				mu.Unlock()
				return nil
			})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("%+v: index %d visited %d times", tc, i, n)
			}
		}
	}
}

// Scratch is built once per worker, not once per chunk.
func TestForEachChunkScratchPerWorker(t *testing.T) {
	var mu sync.Mutex
	built := 0
	newScratch := func() *int {
		mu.Lock()
		built++
		mu.Unlock()
		return new(int)
	}
	const workers = 3
	if err := par.ForEachChunk(300, 10, workers, newScratch, func(start, end int, sc *int) error {
		*sc++ // worker-local: no race by construction
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if built > workers {
		t.Errorf("newScratch ran %d times for %d workers", built, workers)
	}
}

func TestForEachChunkPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := forEachChunk(1000, 8, workers, par.NoScratch,
			func(start, end int, _ struct{}) error {
				if start >= 96 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}

// An error stops the claiming — later chunks never start — and every
// worker goroutine has returned by the time ForEachChunk does: no call is
// in flight afterwards.
func TestForEachChunkErrorCancelsAndJoins(t *testing.T) {
	boom := errors.New("boom")
	const total = 10000
	var started, inFlight atomic.Int64
	err := forEachChunk(total, 1, 4, par.NoScratch,
		func(start, _ int, _ struct{}) error {
			started.Add(1)
			inFlight.Add(1)
			defer inFlight.Add(-1)
			if start == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d calls still in flight after return", n)
	}
	if n := started.Load(); n >= total {
		t.Fatalf("all %d chunks ran despite the error", n)
	}
}

func TestForEachChunkEmpty(t *testing.T) {
	if err := forEachChunk(0, 4, 4, par.NoScratch,
		func(int, int, struct{}) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}
