package securemat

import (
	"runtime"
	"sync"
)

// DefaultParallelism returns the worker count used when a ComputeOptions
// asks for "auto" parallelism (Parallelism < 0): one worker per CPU.
func DefaultParallelism() int { return runtime.NumCPU() }

// forEachChunk partitions [0, total) into contiguous chunks of at most
// chunk indices and drains them on a bounded worker pool (sequentially
// when workers < 2). Each worker builds its scratch once with newScratch
// and reuses it for every chunk it drains — the property the batched
// decryption pipeline needs to keep per-cell allocations out of the steady
// state. The first error cancels remaining chunks; all goroutines are
// joined before returning.
func forEachChunk[S any](total, chunk, workers int, newScratch func() S, fn func(start, end int, sc S) error) error {
	if total <= 0 {
		return nil
	}
	if chunk < 1 {
		chunk = 1
	}
	numChunks := (total + chunk - 1) / chunk
	workers = min(workers, numChunks)
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
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		done     = make(chan struct{})
		chunks   = make(chan int)
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(done)
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newScratch()
			for start := range chunks {
				if err := fn(start, min(start+chunk, total), sc); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for start := 0; start < total; start += chunk {
		select {
		case chunks <- start:
		case <-done:
			break feed
		}
	}
	close(chunks)
	wg.Wait()
	return firstErr
}
