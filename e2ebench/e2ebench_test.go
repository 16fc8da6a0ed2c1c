package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// short returns a copy of the named workload with a shorter episode, so a
// test plays the real scenario code in a fraction of a second.
func short(t *testing.T, name string, d time.Duration) *workload {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.duration = d
	return &c
}

func play(t *testing.T, w *workload, sc scenario, tr *tracer) *episodeResult {
	t.Helper()
	ep, err := runEpisode(w, sc, tr)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// TestObservedAndTracedRunsAgree is the read-only guarantee: timing the
// benchmark's calls, sampling the queue depth and profiling must not
// change a single simulated output, and a rerun at the same seed must
// reproduce them too.
func TestObservedAndTracedRunsAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    time.Duration
	}{
		{"fig8-tcp", 3 * time.Second},
		{"dissem-64", 1500 * time.Millisecond},
		{"rpc-churn", 3 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := short(t, tc.name, tc.d)
			sc, err := w.prepare(7, w.duration)
			if err != nil {
				t.Fatal(err)
			}
			plain := play(t, w, sc, nil)
			traced := play(t, w, sc, &tracer{})
			again := play(t, w, sc, nil)
			if plain.loop.events == 0 {
				t.Fatal("no events ran")
			}
			if traced.digest != plain.digest || again.digest != plain.digest {
				t.Fatalf("digests differ: plain %016x traced %016x rerun %016x", plain.digest, traced.digest, again.digest)
			}
			if traced.loop.events != plain.loop.events {
				t.Fatalf("traced run executed %d events, untraced %d", traced.loop.events, plain.loop.events)
			}
			other, err := w.prepare(8, w.duration)
			if err != nil {
				t.Fatal(err)
			}
			if play(t, w, other, nil).digest == plain.digest {
				t.Fatal("a different seed reproduced the same outputs: the digest does not see the inputs")
			}
		})
	}
}

// TestWrongExpectedValueFails checks that the correctness check bites: the
// same episode fails exactly when one model value is wrong.
func TestWrongExpectedValueFails(t *testing.T) {
	w := short(t, "fig8-tcp", 12*time.Second)
	raw, err := w.prepare(3, w.duration)
	if err != nil {
		t.Fatal(err)
	}
	sc := raw.(*fig8Scenario)
	const cell = "phase 6 c3"
	mentions := func(fs []string) bool {
		for _, f := range fs {
			if strings.Contains(f, cell) {
				return true
			}
		}
		return false
	}
	right := play(t, w, sc, nil)
	if mentions(right.out.failures) {
		t.Fatalf("the right model value failed: %v", right.out.failures)
	}
	sc.expected[5][2] *= 2 // c3 is held to its 10 Mb/s access link
	wrong := play(t, w, sc, nil)
	if !mentions(wrong.out.failures) {
		t.Fatalf("a doubled model value passed; failures: %v", wrong.out.failures)
	}
	if len(wrong.out.failures) != len(right.out.failures)+1 {
		t.Fatalf("want exactly one more failure, got %d then %d", len(right.out.failures), len(wrong.out.failures))
	}
}

// benchmarkSpec is the part of BENCHMARK.json the result must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkResult matches a result's metrics, names and units against the
// declared list.
func checkResult(t *testing.T, res result, declared map[string]string) {
	t.Helper()
	got := make(map[string]string)
	for _, m := range res.metrics {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", m.Name)
		}
		if m.Unit == "" {
			t.Errorf("metric %s has no unit", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", m.Name, m.Value)
		}
		if _, dup := got[m.Name]; dup {
			t.Errorf("metric %s reported twice", m.Name)
		}
		got[m.Name] = m.Unit
	}
	for name, unit := range declared {
		if got[name] != unit {
			t.Errorf("metric %s: reported unit %q, BENCHMARK.json declares %q", name, got[name], unit)
		}
	}
	for name := range got {
		if _, ok := declared[name]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

// TestMetricsMatchBenchmarkJSON runs both modes on a short episode and
// checks every metric against BENCHMARK.json, and that the CPU shares
// cover all samples.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	e2e := make(map[string]string)
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := make(map[string]string)
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}

	w := short(t, "fig8-tcp", 12*time.Second)
	res, err := measureEndToEnd(w, 1, time.Millisecond, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, e2e)
	if res.failed != 0 || res.attempted == 0 {
		t.Errorf("end-to-end run: %d of %d operations failed: %v", res.failed, res.attempted, res.failures)
	}
	for _, m := range res.metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v; every end-to-end metric must be positive", m.Name, m.Value)
		}
	}

	res, err = measureLayers(w, 1, time.Millisecond, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, layer)
	var sum float64
	for _, m := range res.metrics {
		if strings.HasPrefix(m.Name, "cpu_pct.") {
			sum += m.Value
		}
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("cpu_pct.* shares sum to %v, want 100", sum)
	}
}

func TestLayerAttribution(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"container/heap.down", "container/heap.Pop", "repro/internal/sim.(*Engine).Step", "main.runLoop"}, "sim"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/netem.(*Chain).Enqueue"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "runtime.mapaccess2", "repro/internal/core.(*Manager).enforce"}, "core"},
		{[]string{"repro/internal/metrics.(*Counter).Inc", "repro/internal/dissem.(*Stats).send"}, "dissem"},
		{[]string{"repro/internal/graph.(*Graph).Clone", "repro/internal/topology.(*Live).Apply", "repro/kollaps.(*Experiment).SetLink"}, "topology"},
		{[]string{"repro/internal/tcal.(*TCAL).Send", "repro/internal/core.containerNet.Send"}, "dataplane"},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"time.now", "main.runLoop.func1"}, "apps"},
		{[]string{"syscall.Syscall"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
}

// TestCalibration checks the speed factor (the reference time over the
// median kernel sample) and that the kernel yields its samples.
func TestCalibration(t *testing.T) {
	samples := []time.Duration{calibrationRef / 2, calibrationRef * 4, calibrationRef / 2, calibrationRef / 2}
	if got := calibration(samples); got != 2 {
		t.Errorf("calibration of a machine twice as fast = %v, want 2", got)
	}
	ks := calibrate()
	if len(ks) != calibrationReps {
		t.Fatalf("%d kernel samples, want %d", len(ks), calibrationReps)
	}
	for _, k := range ks {
		if k <= 0 {
			t.Fatalf("kernel sample %v", k)
		}
	}
}
