package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cryptonn/internal/wire"
)

// processStart anchors the first set-up measurement at process start.
var processStart = time.Now()

// runConfig is one child run: one workload, one seed, one mode.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	conns    int    // load connections on the data plane
	outDir   string // result and trace files go here when non-empty
}

// setupReps is how many times a run builds its deployment from nothing;
// setup_s is the median. A set-up of a tenth of a second is one glimpse of a
// box whose speed moves, so the short ones are repeated more: about two
// seconds of set-up per run. The count is fixed per workload because the
// library keeps its per-group tables for the life of the process, so the
// run's resident set grows with every deployment before it. Smoke runs set
// up once.
var setupReps = map[string]int{
	"train_mlp":   4,
	"train_cnn":   4,
	"serve_dense": 7,
	"serve_topk":  3,
	"keys_quorum": 7,
}

// metric is one named reading with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseCount is the attempted/succeeded/failed tally of one phase.
type phaseCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// result is what one child run reports. The driver contract fixes the four
// summary keys; everything else goes to the result file only.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string                 `json:"workload"`
	Trace    bool                   `json:"trace"`
	Env      envInfo                `json:"env"`
	Phases   map[string]*phaseCount `json:"phases"`
	// Notes holds readings that are not metrics: op counts, the weight
	// hash, accuracies, the tail percentile the sample supports.
	Notes map[string]any `json:"notes"`

	failures []string
}

func newResult(cfg runConfig) *result {
	return &result{
		Metrics:  make(map[string]metric),
		Workload: cfg.workload,
		Trace:    cfg.trace,
		Env:      collectEnv(cfg),
		Phases:   make(map[string]*phaseCount),
		Notes:    make(map[string]any),
	}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) phase(name string) *phaseCount {
	p := r.Phases[name]
	if p == nil {
		p = &phaseCount{}
		r.Phases[name] = p
	}
	return p
}

// count tallies one attempt in a phase; a non-nil err is a failure.
func (r *result) count(phase string, err error) {
	p := r.phase(phase)
	p.Attempted++
	if err == nil {
		p.Succeeded++
		return
	}
	p.Failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, phase+": "+err.Error())
	}
}

// finish derives the summary keys from the phase tallies.
func (r *result) finish() {
	r.Attempted, r.Failed = 0, 0
	for _, p := range r.Phases {
		r.Attempted += p.Attempted
		r.Failed += p.Failed
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if len(r.failures) > 0 {
		r.Notes["failures"] = r.failures
	}
}

// envInfo records where and on what a result was taken.
type envInfo struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Conns      int     `json:"load_conns"`
}

func collectEnv(cfg runConfig) envInfo {
	return envInfo{
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitHead(),
		Conns:      cfg.conns,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitHead is the checked-out commit, or "unknown" outside a git work tree
// (the driver's checkouts are plain directories).
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 { return rssMB("VmHWM:") }

// rssMB reads one of the kB fields of /proc/self/status.
func rssMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			// "VmHWM:	   36548 kB"
			if fields := strings.Fields(rest); len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// rssSampler reads the resident set when it starts and every rssEvery while
// it runs. The high-water mark of a garbage-collected process is set by
// where collector cycles happen to fall (61–84 MB over eight runs of
// train_cnn); the median of the samples is what the run held most of the
// time (58–65 MB over the same runs).
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

const rssEvery = 50 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), mb: []float64{rssMB("VmRSS:")}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.mb = append(s.mb, rssMB("VmRSS:"))
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}

// opFunc performs operation i of one caller. Its latency is the time the
// call takes; the post function it returns runs right after, off the
// latency clock, and checks the operation's output against the oracle (nil
// when there is nothing to check).
type opFunc func(caller, i int, sc *scope) (post func() error, err error)

// loopStats is what a closed loop measured.
type loopStats struct {
	latMs      []float64 // one per operation that returned without error
	wall       time.Duration
	errs       []error // operations that failed outright
	mismatches []error // operations whose output failed its oracle
}

// closedLoop drives callers goroutines for d (and for at least minOps
// operations each): a caller issues its next operation only when the
// previous one has returned, so the in-flight count equals callers. A
// retryable wire.ErrBusy is retried until it succeeds and the retries count
// into the operation's latency. With a tracer, every operation gets a root
// span called "op".
func closedLoop(callers int, d time.Duration, minOps int, tr *tracer, op opFunc) loopStats {
	var (
		mu sync.Mutex
		st loopStats
		wg sync.WaitGroup
	)
	start := time.Now()
	var probed time.Duration // caller 0's alone
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < d || i < minOps; i++ {
				sc := tr.root("op", i*callers+c)
				t := time.Now()
				post, err := op(c, i, sc)
				for errors.Is(err, wire.ErrBusy) {
					post, err = op(c, i, sc)
				}
				lat := time.Since(t)
				sc.end()
				var mismatch error
				if err == nil && post != nil {
					mismatch = post()
				}
				// Caller 0 keeps the box probe at its share of the
				// loop's time, between its operations.
				if c == 0 {
					if owed := time.Duration(probeShare*float64(time.Since(start))) - probed; owed > 0 {
						probed += box.run(owed)
					}
				}
				mu.Lock()
				switch {
				case err != nil:
					st.errs = append(st.errs, err)
				case mismatch != nil:
					st.mismatches = append(st.mismatches, mismatch)
					fallthrough
				default:
					st.latMs = append(st.latMs, float64(lat.Nanoseconds())/1e6)
				}
				mu.Unlock()
				if err != nil {
					return // a broken deployment would only repeat the error
				}
			}
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(start)
	return st
}

// tally moves a loop's outcomes into a result phase: operations that
// returned an error and operations whose output failed the oracle are both
// failed operations.
func (r *result) tally(phase string, st loopStats) {
	for i := len(st.mismatches); i < len(st.latMs); i++ {
		r.count(phase, nil)
	}
	for _, err := range st.errs {
		r.count(phase, err)
	}
	for _, err := range st.mismatches {
		r.count(phase, fmt.Errorf("oracle: %w", err))
	}
}

// endToEnd fills the end-to-end metrics a timed loop yields. Set-up time
// and peak memory are process-wide and added by the runner. The rate is
// reported at the reference box's speed (probe.go); the rate as measured is
// kept in the notes.
func (r *result) endToEnd(st loopStats, samplesPerOp int, commKBPerOp float64) {
	asc := sorted(st.latMs)
	measured := float64(len(asc)*samplesPerOp) / st.wall.Seconds()
	r.set("samples_per_s", measured/box.speed(), "1/s")
	r.Notes["samples_per_s_measured"] = measured
	r.set("comm_kb_per_op", commKBPerOp, "kB")
	r.Notes["latencies_ms"] = st.latMs
	for _, p := range []int{50, 75, 90} {
		r.Notes[fmt.Sprintf("latency_ms_p%d", p)] = quantile(asc, float64(p)/100)
	}
	r.Notes["timed_ops"] = len(asc)
	r.Notes["timed_wall_s"] = st.wall.Seconds()
	r.Notes["tail_percentile_supported"] = supportedTail(len(asc))
}

// untracedThird is the first third of a traced run: the same closed loop
// with tracing off. It yields the untraced median that
// trace_overhead_share compares with, the process-wide allocation counts
// per operation, and the readings that were end-to-end metrics in the issue
// and are per-layer metrics here because they cannot hold a bound on a box
// whose speed drifts (README, "Deviations"): latency percentiles and client
// encryption time.
func (r *result) untracedThird(callers int, d time.Duration, minOps int, encryptMsPerSample float64, op opFunc) loopStats {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := closedLoop(callers, d, minOps, nil, op)
	runtime.ReadMemStats(&after)
	r.tally("untraced", st)
	asc, ops := sorted(st.latMs), float64(max(len(st.latMs), 1))
	r.set("latency_ms_p50", quantile(asc, 0.50), "ms")
	r.set("latency_ms_p75", quantile(asc, 0.75), "ms")
	r.set("latency_ms_p90", quantile(asc, 0.90), "ms")
	r.set("client_encrypt_ms_per_sample", encryptMsPerSample, "ms")
	r.set("core.allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops, "count")
	r.set("core.kb_alloc_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1000/ops, "kB")
	r.Notes["untraced_ops"] = len(st.latMs)
	return st
}

// encryptWindow is how much client encryption a run times before it takes
// the median: the pool alone is a few tens of milliseconds of work, too
// short a glimpse of a machine whose speed drifts from second to second.
const encryptWindow = 1500 * time.Millisecond

// encryptMore keeps timing encrypt(i), i = 0, 1, …, appending to ms, until
// the samples in ms add up to encryptWindow. The ciphertexts are discarded:
// the pool the run uses is already encrypted.
func encryptMore(ms *[]float64, smoke bool, encrypt func(i int) error) error {
	var total float64
	for _, v := range *ms {
		total += v
	}
	for i := 0; !smoke && total < float64(encryptWindow.Milliseconds()); i++ {
		t := time.Now()
		if err := encrypt(i); err != nil {
			return err
		}
		el := msSince(t)
		*ms = append(*ms, el)
		total += el
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
