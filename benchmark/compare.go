package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the runner reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec finds BENCHMARK.json in the working directory or, failing that,
// one level up (when run from inside benchmark/).
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// runAll runs every workload, each run in its own child process so that
// set-up time, peak memory and the library's package-level table and solver
// caches never depend on what ran before: per workload `runs` untraced runs
// (seeds seed, seed+1, …) and one traced run.
func runAll(cfg runConfig, runs int) error {
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join("benchmark", "out")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, name := range workloadNames {
		// A result set holds the runs of one invocation only.
		if err := os.Remove(filepath.Join(cfg.outDir, name+".json")); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		for i := 0; i <= runs; i++ {
			seed, trace := cfg.seed+int64(i), "0"
			if i == runs {
				seed, trace = cfg.seed, "1"
			}
			args := []string{
				"-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-trace", trace, "-conns", strconv.Itoa(cfg.conns), "-out", cfg.outDir,
			}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (seed %d, trace %s): %v\n", name, seed, trace, err)
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d child runs failed", failed)
	}
	fmt.Printf("# results in %s\n", cfg.outDir)
	return nil
}

// exactCounts are the per-layer metrics that count work and must repeat
// exactly between two runs of one commit.
var exactCounts = []string{
	"authority.ip_keys_per_op", "authority.bo_keys_per_op", "authority.ip_scalars_per_op",
	"wire.key_roundtrips_per_op",
}

func loadSet(dir, workload string) (*resultSet, error) {
	data, err := os.ReadFile(filepath.Join(dir, workload+".json"))
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s/%s.json: %w", dir, workload, err)
	}
	return &set, nil
}

// values collects one metric over the runs of a set that report it.
func (s *resultSet) values(name string, traced bool) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok && r.Trace == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges candidate b against baseline a for one metric: "worse"
// when b's median is worse than a's by more than the bound, "unresolved"
// when the runs of either side spread wider than the bound (so the
// comparison cannot tell), "ok" otherwise.
func verdict(a, b []float64, m specMetric) (medA, medB, delta, spreadAB float64, v string) {
	medA, medB = median(a), median(b)
	if medA != 0 {
		delta = (medB - medA) / medA
	}
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	spreadAB = max(spread(a), spread(b))
	switch {
	case len(a) >= 4 && len(b) >= 4 && spreadAB > m.Bound:
		v = "unresolved"
	case worse > m.Bound:
		v = "worse"
	default:
		v = "ok"
	}
	return
}

// compareCmd prints one row per (metric, workload) of two result sets and
// fails when any end-to-end metric got worse or an exact count changed.
func compareCmd(dirs []string) error {
	if len(dirs) != 2 {
		return errors.New("-compare takes two result directories")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	sort.Slice(spec.EndToEnd, func(i, j int) bool { return spec.EndToEnd[i].Name < spec.EndToEnd[j].Name })
	fmt.Printf("%-30s %-12s %12s %12s %8s %7s %7s  %s\n", "metric", "workload", "A median", "B median", "delta", "bound", "spread", "verdict")
	bad := 0
	for _, wl := range spec.Workloads {
		a, errA := loadSet(dirs[0], wl.Name)
		b, errB := loadSet(dirs[1], wl.Name)
		if errA != nil || errB != nil {
			fmt.Printf("%-30s %-12s missing in a result set (%v)\n", "-", wl.Name, errors.Join(errA, errB))
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := a.values(m.Name, false), b.values(m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, delta, sp, v := verdict(va, vb, m)
			fmt.Printf("%-30s %-12s %12.4f %12.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				m.Name, wl.Name, medA, medB, 100*delta, 100*m.Bound, 100*sp, v)
			if v == "worse" {
				bad++
			}
		}
		for _, name := range exactCounts {
			va, vb := a.values(name, true), b.values(name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := "identical"
			if va[0] != vb[0] {
				v = "differs"
				bad++
			}
			fmt.Printf("%-30s %-12s %12.4f %12.4f %8s %7s %7s  %s\n", name, wl.Name, va[0], vb[0], "", "exact", "", v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse, differing or missing", bad)
	}
	return nil
}
