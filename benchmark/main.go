// Command benchmark is the repository's end-to-end benchmark: five CryptoNN
// workloads at the paper's 256-bit group parameter, every plane on real
// loopback TCP, with a traced per-layer breakdown. README.md in this
// directory defines the workloads and metrics; BENCHMARK.json at the
// repository root names them for the driver.
//
//	go run ./benchmark -workload all -seed 1         every workload, each run in its own child process
//	go run ./benchmark -workload train_mlp -trace 1  one child run (what the driver invokes)
//	go run ./benchmark -compare A B                  compare two result sets
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	var cfg runConfig
	var trace int
	var compare bool
	var runs int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: one of "+fmt.Sprint(workloadNames)+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for data, weights and supports")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured run")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny shapes and two or three operations per phase (for go test)")
	flag.IntVar(&cfg.conns, "conns", min(2, runtime.NumCPU()), "load connections on the data plane (callers on the key plane)")
	flag.StringVar(&cfg.outDir, "out", "", "directory for result and trace files (default benchmark/out with -workload all)")
	flag.BoolVar(&compare, "compare", false, "compare the two result sets given as arguments")
	flag.IntVar(&runs, "runs", 1, "with -workload all: untraced runs per workload, each with the next seed")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case compare:
		err = compareCmd(flag.Args())
	case cfg.workload == "all":
		err = runAll(cfg, runs)
	default:
		err = runChild(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// workload is one benchmark workload behind the common runner.
type workload interface {
	// setup builds a fresh deployment — authority, servers, connections,
	// keys, tables, model — and performs the first successful operation.
	setup() error
	// teardown stops everything setup started and waits for it.
	teardown()
	// prepare does the client-side work that must not overlap the run.
	prepare(r *result) error
	// timedRun is the untraced run; it fills the end-to-end metrics.
	timedRun(r *result, d time.Duration, minOps int)
	// tracedRun is the traced run; it fills the per-layer metrics.
	tracedRun(r *result, d time.Duration, minOps int, tr *tracer) error
}

func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.workload {
	case "train_mlp", "train_cnn":
		return newTrainWorkload(cfg)
	case "serve_dense", "serve_topk":
		return newServeWorkload(cfg), nil
	case "keys_quorum":
		return newKeysWorkload(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v and all)", cfg.workload, workloadNames)
}

// runChild is one run of one workload in this process.
func runChild(cfg runConfig) error {
	if cfg.conns < 1 || cfg.conns > runtime.NumCPU() {
		return fmt.Errorf("%d load connections on %d CPUs: the load generator shares the cores with the system it measures and must not outnumber them", cfg.conns, runtime.NumCPU())
	}
	r, err := measure(cfg)
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, r)
	if cfg.outDir != "" {
		if err := writeResult(cfg, r); err != nil {
			return err
		}
	}
	// The driver reads the last line of standard output.
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure performs set-up, warm-up and the run of one child.
func measure(cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	r := newResult(cfg)
	reps, minOps := setupReps[cfg.workload], 0
	if cfg.smoke {
		reps, minOps = 1, 2
	}
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart
		} else {
			w.teardown()
			runtime.GC()
		}
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		setupBox.run(setupProbe)
	}
	defer w.teardown()
	if err := w.prepare(r); err != nil {
		return nil, fmt.Errorf("preparing the run: %w", err)
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.smoke {
		d = 0
	}
	if cfg.trace {
		tr := newTracer()
		if err := w.tracedRun(r, d, minOps, tr); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for name, unit := range perLayerUnits {
			if _, ok := r.Metrics[name]; !ok {
				r.set(name, 0, unit)
			}
		}
		if cfg.outDir != "" {
			if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
				return nil, err
			}
			if err := writeJSONL(filepath.Join(cfg.outDir, cfg.workload+".trace.jsonl"), tr.finished()); err != nil {
				return nil, err
			}
		}
	} else {
		rss := startRSSSampler()
		w.timedRun(r, d, minOps)
		r.set("rss_mb", median(rss.finish()), "MB")
		r.set("setup_s", median(setups)*setupBox.speed(), "s")
		r.Notes["peak_rss_mb"] = peakRSSMB()
	}
	r.Notes["setup_s_each"] = setups
	r.Notes["box_speed"], r.Notes["box_speed_setup"] = box.speed(), setupBox.speed()
	r.finish()
	if r.Failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed: %v\n", r.Failed, r.Attempted, r.failures)
	}
	return r, nil
}

// printMetrics lists every metric by name with its unit, then the
// attempted/succeeded/failed tally of every phase.
func printMetrics(f *os.File, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	mode := "untraced run, end-to-end metrics"
	if r.Trace {
		mode = "traced run, per-layer metrics"
	}
	fmt.Fprintf(f, "# %s seed %d: %s\n", r.Workload, r.Env.Seed, mode)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(f, "%-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	phases := make([]string, 0, len(r.Phases))
	for name := range r.Phases {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	for _, name := range phases {
		p := r.Phases[name]
		fmt.Fprintf(f, "# phase %-10s attempted %d succeeded %d failed %d\n", name, p.Attempted, p.Succeeded, p.Failed)
	}
	if v, ok := r.Notes["samples_per_s_measured"]; ok {
		fmt.Fprintf(f, "# as measured: %.4f samples/s at box speed %.3f (set-ups: %.3f); resident-set high-water mark %.1f MB\n",
			v, r.Notes["box_speed"], r.Notes["box_speed_setup"], r.Notes["peak_rss_mb"])
	}
	if n, ok := r.Notes["timed_ops"]; ok {
		fmt.Fprintf(f, "# latency over %v samples: p50 %.3f ms, p75 %.3f ms, p90 %.3f ms; highest percentile with ten samples beyond it: p%g\n",
			n, r.Notes["latency_ms_p50"], r.Notes["latency_ms_p75"], r.Notes["latency_ms_p90"], 100*r.Notes["tail_percentile_supported"].(float64))
	}
}

// writeResult appends this run to <out>/<workload>.json, the result set a
// later -compare reads.
func writeResult(cfg runConfig, r *result) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, cfg.workload+".json")
	var set resultSet
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &set); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	set.Runs = append(set.Runs, r)
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// resultSet is the content of one <workload>.json: every run recorded for
// the workload, untraced and traced.
type resultSet struct {
	Runs []*result `json:"runs"`
}
