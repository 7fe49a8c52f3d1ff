package par

import (
	"fmt"
	"runtime"
	"testing"
)

// The one rule: n > 0 is n workers, anything else is every core the runtime
// may use.
func TestWorkers(t *testing.T) {
	all := runtime.GOMAXPROCS(0)
	for n, want := range map[int]int{0: all, -1: all, 1: 1, 2: 2, 7: 7} {
		if got := Workers(n); got != want {
			t.Errorf("Workers(%d) = %d, want %d", n, got, want)
		}
	}
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	if got := Workers(0); got != 3 {
		t.Errorf("Workers(0) = %d under GOMAXPROCS=3", got)
	}
}

// Two chunks fail in the same call and the higher one fails first — it is
// held until the lower one has started, and the lower one fails only after
// the higher one has returned. Whatever the worker count and however the
// goroutines are scheduled, the caller sees the lower chunk's error.
func TestForEachChunkLowestFailingChunkWins(t *testing.T) {
	const low, high = 2, 5
	for _, workers := range []int{2, 3, 7} {
		for round := 0; round < 50; round++ {
			lowStarted, highFailed := make(chan struct{}), make(chan struct{})
			err := ForEachChunk(8, 1, workers, NoScratch, func(start, _ int, _ struct{}) error {
				switch start {
				case low:
					close(lowStarted)
					<-highFailed
					return fmt.Errorf("chunk %d", low)
				case high:
					<-lowStarted
					close(highFailed)
					return fmt.Errorf("chunk %d", high)
				}
				return nil
			})
			if err == nil || err.Error() != fmt.Sprintf("chunk %d", low) {
				t.Fatalf("workers=%d round %d: err = %v, want chunk %d's", workers, round, err, low)
			}
		}
	}
}
