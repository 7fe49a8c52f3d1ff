package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"cryptonn/internal/dlog"
)

// TestSmoke drives every workload through the code path of a real run, in
// both modes, with tiny shapes and two or three operations per phase: the
// oracles must pass, every catalogued metric must be emitted with its unit,
// and the training workloads must compute their span coverage.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 1, smoke: true, trace: trace, conns: 2, outDir: t.TempDir()}
			r, err := measure(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", name, trace, r.Correct, r.Attempted, r.Failed, r.failures)
			}
			want := endToEndUnits
			if trace {
				want = perLayerUnits
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(r.Metrics), len(want))
			}
			for metricName, unit := range want {
				m, ok := r.Metrics[metricName]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", name, trace, metricName)
				case m.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, want %q", name, metricName, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", name, metricName, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, metricName, m.Value)
				}
			}
			if trace {
				if cov := r.Metrics["core.step_span_coverage"].Value; cov <= 0 {
					t.Errorf("%s: span coverage %v not computed", name, cov)
				}
				if _, err := os.Stat(cfg.outDir + "/" + name + ".trace.jsonl"); err != nil {
					t.Errorf("%s: trace file: %v", name, err)
				}
			}
		}
	}
}

// TestCatalogueMatchesSpec holds BENCHMARK.json and the metric catalogue
// together: same workloads, same metric names, same units.
func TestCatalogueMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("spec has %d workloads, runner %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: spec %q, runner %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, metrics []specMetric, units map[string]string) {
		if len(metrics) != len(units) {
			t.Errorf("%s: spec has %d metrics, catalogue %d", kind, len(metrics), len(units))
		}
		for _, m := range metrics {
			if unit, ok := units[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s [%s] in the spec, [%s] (present=%v) in the catalogue", kind, m.Name, m.Unit, unit, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayerUnits)
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantilesAndSpread(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quantile(sorted(xs), 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestSelfTime: a span's self time is its duration minus what its children
// cover, counting overlapping children once.
// TestBoxProbe: a run of no budget still takes one slice, slices use CPU
// time, and the speed is the reference slice time over the mean slice time.
func TestBoxProbe(t *testing.T) {
	var p boxProbe
	if got := p.speed(); got != 1 {
		t.Errorf("speed without a slice = %v, want 1", got)
	}
	p.run(0)
	if p.slices != 1 || p.cpu <= 0 {
		t.Fatalf("after run(0): %d slices, %v CPU time", p.slices, p.cpu)
	}
	p = boxProbe{cpu: 12 * time.Millisecond, slices: 2}
	if got, want := p.speed(), probeRefMs/6; math.Abs(got-want) > 1e-12 {
		t.Errorf("speed = %v, want %v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "op", StartNs: 0, EndNs: 100, Parent: -1},
		{ID: 1, Name: "a", StartNs: 10, EndNs: 30, Parent: 0},
		{ID: 2, Name: "b", StartNs: 20, EndNs: 50, Parent: 0}, // overlaps a
		{ID: 3, Name: "c", StartNs: 60, EndNs: 70, Parent: 0},
		{ID: 4, Name: "leaf", StartNs: 22, EndNs: 28, Parent: 2},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{0: 50, 1: 20, 2: 24, 3: 10, 4: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// TestTracerNilSafe: an absent tracer records nothing and costs no branch
// at the call sites.
func TestTracerNilSafe(t *testing.T) {
	var tr *tracer
	sc := tr.root("op", 0)
	sc.child("x").end()
	sc.end()
	if got := tr.finished(); got != nil {
		t.Errorf("nil tracer returned spans: %v", got)
	}
	live := newTracer()
	root := live.root("op", 7)
	kid := root.child("phase")
	kid.end()
	if got := live.finished(); len(got) != 1 || got[0].Name != "phase" || got[0].Parent != 0 || got[0].Op != 7 {
		t.Errorf("finished() with the root still open = %+v", got)
	}
}

func TestCountingConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var c byteCounter
	conn := countingConn{Conn: a, c: &c}
	go func() {
		buf := make([]byte, 5)
		_, _ = b.Read(buf)
		_, _ = b.Write([]byte("abc"))
	}()
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := conn.Read(buf)
	if err != nil || n != 3 {
		t.Fatalf("read %d bytes, err %v", n, err)
	}
	if c.out.Load() != 5 || c.in.Load() != 3 || c.total() != 8 {
		t.Errorf("counted out=%d in=%d total=%d, want 5, 3, 8", c.out.Load(), c.in.Load(), c.total())
	}
}

func TestOracles(t *testing.T) {
	w := [][]int64{{1, -2}, {0, 3}}
	x := [][]int64{{4, 5}, {6, 7}}
	if got := matMulInt(w, x); !equalInt(got, [][]int64{{-8, -9}, {18, 21}}) {
		t.Errorf("W·X = %v", got)
	}
	if got := subInt(x, w); !equalInt(got, [][]int64{{3, 7}, {6, 4}}) {
		t.Errorf("Y−P = %v", got)
	}
	// D·Xᵀ: rows of d against rows of x.
	if got := matMulT2Int(w, x); !equalInt(got, [][]int64{{-6, -8}, {15, 21}}) {
		t.Errorf("D·Xᵀ = %v", got)
	}
	// Ties break towards the lower index, as dlog.TopKMont does.
	got := topKInt([]int64{5, 9, 9, -1, 5}, 3)
	want := []dlog.TopKHit{{Index: 1, Value: 9}, {Index: 2, Value: 9}, {Index: 0, Value: 5}}
	if !equalHits(got, want) {
		t.Errorf("top-3 = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_ms_p50", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "samples_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		m    specMetric
		want string
	}{
		{"within bound", steady, []float64{105, 106, 104, 105, 105}, lower, "ok"},
		{"slower", steady, []float64{120, 121, 119, 120, 120}, lower, "worse"},
		{"faster is fine", steady, []float64{80, 81, 79, 80, 80}, lower, "ok"},
		{"throughput fell", steady, []float64{80, 81, 79, 80, 80}, higher, "worse"},
		{"too noisy to tell", []float64{100, 140, 60, 100, 120}, []float64{120, 121, 119, 120, 120}, lower, "unresolved"},
		{"single runs", []float64{100}, []float64{120}, lower, "worse"},
	} {
		if _, _, _, _, got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
