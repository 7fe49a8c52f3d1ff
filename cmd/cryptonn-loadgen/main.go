// Command cryptonn-loadgen measures prediction-serving throughput: it
// drives N concurrent prediction clients against a running server
// (started with -predict-listen) and prints aggregate throughput and
// latency percentiles. With several clients it exercises the server's
// cross-client batch coalescing; with -clients 1 it measures the serial
// per-connection baseline for comparison.
//
// Usage:
//
//	cryptonn-loadgen -authority 127.0.0.1:7001 -server 127.0.0.1:7003 \
//	    -features 784 -classes 10 -clients 8 -samples 1 -requests 50
//
// -sweep "16,256,1024" measures a whole connection-count scaling curve
// in one run. -pipeline N keeps N requests in flight per connection
// (connections multiplex: responses are matched by request id).
//
// Encrypted batches are prepared before the clock starts (prediction
// touches only the input ciphertexts, so batches are reusable and
// read-only) and shared from a fixed-size pool, so thousands of
// connections do not need thousands of encryptions. Requests rejected
// under server backpressure (wire.ErrBusy) back off exponentially and
// retry; retries are counted and reported.
//
// For sparse extreme-multi-label workloads (the ICD coding scenario:
// bag-of-words inputs at <5% density, hundreds of output labels, top-k
// decryption — see docs/SPARSE.md), this tool measures the serving path
// only; run `cryptonn-bench -exp icd` for the client-side sparse
// encryption and top-k decryption sweep.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
	"cryptonn/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cryptonn-loadgen:", err)
		os.Exit(1)
	}
}

// clientReport aggregates one client's measurements.
type clientReport struct {
	lats        []time.Duration
	busyRetries int
	err         error
}

func run(args []string) error {
	fs := flag.NewFlagSet("cryptonn-loadgen", flag.ContinueOnError)
	authorityAddr := fs.String("authority", "127.0.0.1:7001", "authority address, or comma-separated cluster node list")
	serverAddr := fs.String("server", "127.0.0.1:7003", "prediction server address")
	features := fs.Int("features", 784, "input feature count (must match the server's model)")
	classes := fs.Int("classes", 10, "output classes (must match the server's model)")
	clients := fs.Int("clients", 4, "concurrent prediction clients")
	samples := fs.Int("samples", 1, "samples per request")
	requests := fs.Int("requests", 20, "requests per client")
	seed := fs.Int64("seed", 7, "synthetic data seed")
	maxBackoff := fs.Duration("max-backoff", 100*time.Millisecond, "cap for the busy-retry backoff")
	pipeline := fs.Int("pipeline", 1, "in-flight requests per connection")
	batchPool := fs.Int("batch-pool", 0, "distinct encrypted batches shared across clients (0 = min(clients, 8))")
	sweep := fs.String("sweep", "", "comma-separated client counts to sweep (overrides -clients)")
	topk := fs.Int("topk", 0, "drive coordinate-form top-k requests, k hits per sample (0: dense full-logit predictions)")
	sparseDensity := fs.Float64("sparse-density", 0, "non-zero input fraction for top-k requests (0 with -topk: 0.01)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients < 1 || *requests < 1 || *samples < 1 || *pipeline < 1 {
		return errors.New("-clients, -requests, -samples and -pipeline must be positive")
	}
	if *sparseDensity < 0 || *sparseDensity > 1 {
		return errors.New("-sparse-density must be in [0, 1]")
	}
	if *sparseDensity > 0 && *topk < 1 {
		return errors.New("-sparse-density drives the top-k path; set -topk too")
	}
	if *topk > 0 && *sparseDensity == 0 {
		*sparseDensity = 0.01
	}
	var counts []int
	if *sweep != "" {
		for _, s := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return fmt.Errorf("invalid -sweep count %q", s)
			}
			counts = append(counts, n)
		}
	} else {
		counts = []int{*clients}
	}

	keys, err := wire.DialKeys(*authorityAddr, log.New(os.Stderr, "loadgen: ", log.LstdFlags))
	if err != nil {
		return err
	}
	defer keys.Close()
	eng, err := securemat.NewEngine(keys, securemat.EngineOptions{})
	if err != nil {
		return err
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		return err
	}

	// A fixed pool of encrypted batches, prepared before the clock
	// starts and shared read-only across clients: the load generator
	// measures serving, not client-side encryption.
	maxClients := 0
	for _, n := range counts {
		maxClients = max(maxClients, n)
	}
	pool := *batchPool
	if pool <= 0 {
		pool = min(maxClients, 8)
	}
	// One requestFunc per pool slot; clients pick theirs round-robin.
	reqs := make([]requestFunc, pool)
	if *topk > 0 {
		fmt.Printf("sparse-encrypting %d batch(es) of %d sample(s) at density %.4f (top-%d)...\n",
			pool, *samples, *sparseDensity, *topk)
		k := *topk
		for c := range reqs {
			sp, err := syntheticSparseBatch(client, *features, *classes, *samples, *sparseDensity, *seed+int64(c))
			if err != nil {
				return err
			}
			reqs[c] = func(cc *wire.ClientConn) error {
				hits, err := cc.PredictTopK(nil, sp, k, 0)
				if err != nil {
					return err
				}
				if len(hits) != sp.N {
					return fmt.Errorf("%d top-k hit lists for %d samples", len(hits), sp.N)
				}
				return nil
			}
		}
	} else {
		fmt.Printf("encrypting %d batch(es) of %d sample(s)...\n", pool, *samples)
		for c := range reqs {
			enc, err := syntheticBatch(client, *features, *classes, *samples, *seed+int64(c))
			if err != nil {
				return err
			}
			reqs[c] = func(cc *wire.ClientConn) error {
				preds, err := cc.Predict(nil, enc, 0)
				if err != nil {
					return err
				}
				if len(preds) != enc.N {
					return fmt.Errorf("%d predictions for %d samples", len(preds), enc.N)
				}
				return nil
			}
		}
	}

	for _, n := range counts {
		if err := runOnce(*serverAddr, n, *requests, *pipeline, *samples, reqs, *maxBackoff); err != nil {
			return err
		}
	}
	return nil
}

// requestFunc issues one prediction (or top-k) request over a connection
// and validates the response shape.
type requestFunc func(cc *wire.ClientConn) error

// runOnce drives one client-count measurement and prints its results.
func runOnce(addr string, clients, requests, pipeline, samples int, reqs []requestFunc, maxBackoff time.Duration) error {
	fmt.Printf("driving %d client(s) × %d request(s) × %d sample(s) against %s (pipeline %d)\n",
		clients, requests, samples, addr, pipeline)
	reports := make([]clientReport, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[c] = drive(addr, reqs[c%len(reqs)], requests, pipeline, maxBackoff)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []time.Duration
	busy := 0
	for c, r := range reports {
		if r.err != nil {
			return fmt.Errorf("client %d: %w", c, r.err)
		}
		lats = append(lats, r.lats...)
		busy += r.busyRetries
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	total := len(lats) * samples
	fmt.Printf("clients=%d served %d samples (%d requests) in %s: %.1f samples/sec\n",
		clients, total, len(lats), elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Printf("request latency p50 %s p99 %s max %s; %d busy retries\n",
		lats[len(lats)/2].Round(time.Microsecond),
		lats[len(lats)*99/100].Round(time.Microsecond),
		lats[len(lats)-1].Round(time.Microsecond), busy)
	return nil
}

// drive issues prediction requests on one connection — back-to-back, or
// `pipeline`-deep when multiplexing — backing off and retrying when the
// server signals backpressure.
func drive(addr string, req requestFunc, requests, pipeline int, maxBackoff time.Duration) clientReport {
	var rep clientReport
	cc, err := wire.Dial(addr)
	if err != nil {
		rep.err = err
		return rep
	}
	defer cc.Close()

	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int, requests)
	for i := 0; i < requests; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < min(pipeline, requests); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				backoff := time.Millisecond
				for {
					start := time.Now()
					err := req(cc)
					if errors.Is(err, wire.ErrBusy) {
						mu.Lock()
						rep.busyRetries++
						mu.Unlock()
						time.Sleep(backoff)
						backoff = min(backoff*2, maxBackoff)
						continue
					}
					mu.Lock()
					if err != nil {
						if rep.err == nil {
							rep.err = fmt.Errorf("request %d: %w", i, err)
						}
						mu.Unlock()
						return
					}
					rep.lats = append(rep.lats, time.Since(start))
					mu.Unlock()
					break
				}
			}
		}()
	}
	wg.Wait()
	return rep
}

// syntheticBatch encrypts a deterministic (features × n) input matrix for
// prediction (core.Client.EncryptPredictBatch): column ciphertexts only, so
// the request frames stay as small as the workload allows.
func syntheticBatch(client *core.Client, features, classes, n int, seed int64) (*core.EncryptedBatch, error) {
	x := tensor.NewDense(features, n)
	for i := 0; i < features; i++ {
		for j := 0; j < n; j++ {
			x.Set(i, j, float64((i*31+j*17+int(seed))%100)/100)
		}
	}
	return client.EncryptPredictBatch(x, classes)
}

// syntheticSparseBatch sparse-encrypts a deterministic (features × n)
// input matrix where roughly `density` of each column is non-zero,
// mimicking a bag-of-words workload. Only the support is encrypted and
// shipped, so frames scale with nnz rather than the feature count.
func syntheticSparseBatch(client *core.Client, features, classes, n int, density float64, seed int64) (*core.SparseBatch, error) {
	nnz := max(1, int(float64(features)*density))
	x := tensor.NewDense(features, n)
	for j := 0; j < n; j++ {
		for t := 0; t < nnz; t++ {
			// Deterministic pseudo-random support per column, hashed in
			// uint64 so it compiles where int is 32 bits and stays an
			// index for a negative seed.
			i := int((uint64(t)*2654435761 + uint64(j)*40503 + uint64(seed)*97) % uint64(features))
			x.Set(i, j, float64((i*31+j*17+int(seed))%100+1)/101)
		}
	}
	return client.EncryptSparseBatch(x, classes)
}
