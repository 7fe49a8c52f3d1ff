// Package par is the repository's one worker helper and the one place a
// Parallelism value is resolved. Every data-parallel loop on the secure path
// — the evaluator and the encryption loops of securemat, the authority's key
// batches, the comb and weight-encoding set-up loops, the sparse key requests
// in flight — is a ForEachChunk call. It imports nothing outside the standard
// library, so any layer may use it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Parallelism value, the one rule for every option, flag
// and config field that carries one: n > 0 is n workers, anything else is
// every core the Go runtime may use (runtime.GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachChunk partitions [0, total) into contiguous chunks of at most
// chunk indices and drains them, in ascending order, on Workers(workers)
// goroutines at most, the caller's among them (so one worker, or one chunk,
// starts none). Each worker builds its scratch once with
// newScratch and reuses it for every chunk it drains — the property the
// batched decryption pipeline needs to keep per-cell allocations out of the
// steady state. All goroutines are joined before returning.
//
// A failed chunk stops workers from claiming further chunks; chunks already
// claimed run to completion. The error returned is that of the lowest failing
// chunk, whichever worker hit it first: chunks are claimed in ascending order
// off one cursor, so every chunk below a failing one has already been claimed
// and will report, and the result does not depend on scheduling.
func ForEachChunk[S any](total, chunk, workers int, newScratch func() S, fn func(start, end int, sc S) error) error {
	if total <= 0 {
		return nil
	}
	chunk = max(chunk, 1)
	numChunks := (total + chunk - 1) / chunk
	workers = min(Workers(workers), numChunks)
	if workers < 2 {
		sc := newScratch()
		for start := 0; start < total; start += chunk {
			if err := fn(start, min(start+chunk, total), sc); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		wg     sync.WaitGroup
		cursor atomic.Int64 // next unclaimed chunk
		failed atomic.Bool
		mu     sync.Mutex // guards failedAt, firstErr
		// failedAt is the lowest failing chunk so far, firstErr its error.
		failedAt = numChunks
		firstErr error
	)
	drain := func() {
		sc := newScratch()
		for !failed.Load() {
			c := int(cursor.Add(1)) - 1
			if c >= numChunks {
				return
			}
			start := c * chunk
			if err := fn(start, min(start+chunk, total), sc); err != nil {
				failed.Store(true)
				mu.Lock()
				if c < failedAt {
					failedAt, firstErr = c, err
				}
				mu.Unlock()
				return
			}
		}
	}
	// The caller is one of the workers: a two-worker loop starts one
	// goroutine, and the first chunk never waits for a wake-up.
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
	return firstErr
}

// NoScratch is the newScratch of loops whose workers keep no state.
func NoScratch() struct{} { return struct{}{} }
