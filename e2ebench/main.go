// Command e2ebench is the repository's end-to-end emulation benchmark. It
// runs one seeded, paper-shaped workload through the public kollaps API,
// drives the simulation engine itself one event at a time, checks that the
// emulation's outputs are correct, and prints one JSON result line.
//
//	go run ./e2ebench --workload fig8-tcp --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with no
// instrumentation beyond a wall-clock stamp per 50 ms emulation period;
// on fig8-tcp its wall times are scaled to the reference machine's speed
// by a calibration kernel timed between episodes (calibrate.go).
// With --trace 1 it holds the per-layer metrics: the benchmark times its
// own calls into each layer, reads counters the program already exports,
// and attributes a CPU profile to the layers by package. Tracing never
// touches the program's code, and a traced episode must produce the same
// simulated outputs as an untraced one.
//
// A run first plays one warm-up episode, whose simulated outputs become
// the determinism reference, then repeats the same episode until
// --seconds of wall time have passed. Every repetition must reproduce the
// reference bit for bit; any difference is a failed operation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// maxProcs caps GOMAXPROCS so that every machine measures the two-core
// configuration the committed baselines were taken on. The simulation
// itself runs on one goroutine; the second core serves the runtime's
// background GC workers.
const maxProcs = 2

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "wall seconds to measure for")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if runtime.NumCPU() > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	fmt.Fprintf(stderr, "e2ebench: workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d NumCPU=%d %s\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = measureLayers(w, *seed, budget, stderr)
	} else {
		res, err = measureEndToEnd(w, *seed, budget, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	res.report(stderr)
	line, err := json.Marshal(res.wire())
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Note says how the value was formed (sample counts, sources); it is
	// printed to stderr only.
	Note string
}

// result is what one invocation reports.
type result struct {
	attempted, failed int
	failures          []string
	metrics           []metric
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, Note: note})
}

// fail records one failed operation with its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

func (r *result) wire() wireResult {
	out := wireResult{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]wireMetric, len(r.metrics)),
	}
	for _, m := range r.metrics {
		out.Metrics[m.Name] = wireMetric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// report prints every metric by name and unit, the failed operations as a
// share of those attempted, and each failure's reason.
func (r *result) report(w io.Writer) {
	ms := append([]metric(nil), r.metrics...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for _, m := range ms {
		fmt.Fprintf(w, "  %-32s %14.4f %-14s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	pct := 0.0
	if r.attempted > 0 {
		pct = 100 * float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-32s %14.4f %-14s %d of %d operations\n", "ops_failed_pct", pct, "%", r.failed, r.attempted)
	for i, f := range r.failures {
		if i == 20 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(r.failures)-i)
			break
		}
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}
