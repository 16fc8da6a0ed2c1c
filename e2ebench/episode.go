package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/kollaps"
)

// period is the emulation period the benchmark stamps: the Emulation
// Manager loop's default interval.
const period = 50 * time.Millisecond

// workload is one benchmark scenario.
type workload struct {
	name string
	// duration is the virtual length of one episode.
	duration time.Duration
	// prepare generates the inputs of an episode of the given virtual
	// length from the seed. It is not timed; the same seed always yields
	// the same inputs.
	prepare func(seed int64, duration time.Duration) (scenario, error)
	// calibrated scales the wall-time metrics to the reference machine's
	// speed with the calibration kernel (calibrate.go).
	calibrated bool
}

// scenario is one workload's generated inputs.
type scenario interface {
	// setup loads and deploys the experiment and wires its applications
	// (timed as setup_s). tr is nil in untraced episodes.
	setup(tr *tracer) (*deployment, error)
}

// deployment is a set-up episode, ready for the timed loop.
type deployment struct {
	exp          *kollaps.Experiment
	load, deploy time.Duration
	// flows are the container pairs whose shaped bytes (TCAL.TotalSent)
	// enter the determinism digest.
	flows [][2]*core.Container
	// observe, when set, runs after every engine step. It may only read
	// the program's state.
	observe func()
	// check verifies the episode's outputs after the timed loop.
	check func(o *outcome)
}

// outcome is what an episode's checks found.
type outcome struct {
	attempted int
	failures  []string
	// modelErrPct is the mean relative error between delivered and
	// modelled rates, in percent.
	modelErrPct float64
	// outputs are the workload's simulated outputs (delivered bytes, RPC
	// counts); with the shaped bytes, control bytes and event count they
	// form the determinism digest.
	outputs []int64
}

// expect counts one checked operation, failing it when ok is false.
func (o *outcome) expect(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// episodeResult is one episode's measurements.
type episodeResult struct {
	// setups, loads and deploys time each of the episode's set-ups; the
	// last set-up is the one that runs.
	setups, loads, deploys []time.Duration
	loop                   loopResult
	// kernel are the calibration kernel's times taken before the episode.
	kernel             []time.Duration
	vsec               float64
	heapMB             float64
	out                outcome
	digest             uint64
	ctrlBytesPerPeriod float64
	// layer and tracer hold the per-layer readings; nil unless traced.
	layer  *layerReadings
	tracer *tracer
}

// setupReps is how many times an episode sets up; all but the last
// deployment are discarded. Set-up takes milliseconds, so one sample per
// episode would leave setup_s to a handful of noisy readings.
const setupReps = 5

// runEpisode sets up, runs and checks one episode. tr is nil for an
// untraced episode.
func runEpisode(w *workload, sc scenario, tr *tracer) (*episodeResult, error) {
	res := &episodeResult{}
	var d *deployment
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		d, err = sc.setup(tr)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		res.setups = append(res.setups, time.Since(start))
		res.loads = append(res.loads, d.load)
		res.deploys = append(res.deploys, d.deploy)
	}
	runtime.GC()

	var before runtimeSample
	var gen uint64
	if tr != nil {
		gen = d.exp.Runtime.TopologyGen()
		before = readRuntime()
		if err := tr.startProfile(); err != nil {
			return nil, err
		}
	}
	res.loop = runLoop(d.exp.Eng, w.duration, d.observe, tr)
	if tr != nil {
		tr.stopProfile()
		res.layer = readLayers(d, before, readRuntime(), gen)
		res.tracer = tr
	}
	res.vsec = w.duration.Seconds()

	d.check(&res.out)
	rt := d.exp.Runtime
	bad := badFrames(rt)
	res.out.expect(bad == 0, "%d bad control frames", bad)
	res.out.expect(rt.EventError() == nil, "topology event error: %v", rt.EventError())
	sum := d.exp.DissemSummary()
	periods := float64(w.duration / period)
	res.ctrlBytesPerPeriod = float64(sum.BytesSent) / (float64(len(rt.Managers())) * periods)

	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, f := range d.flows {
		put(f[0].TCAL().TotalSent(f[1].IP))
	}
	put(sum.BytesSent)
	put(sum.DatagramsSent)
	put(res.loop.events)
	for _, v := range res.out.outputs {
		put(v)
	}
	res.digest = h.Sum64()

	// Live heap of the still-referenced deployment, outside the timed loop.
	runtime.GC()
	res.heapMB = float64(readUint(metricHeapLive)) / (1 << 20)
	runtime.KeepAlive(d)
	return res, nil
}

// badFrames sums the control datagrams every Manager rejected as
// structurally invalid, of an unknown version or failing the checksum.
func badFrames(rt *core.Runtime) int64 {
	var n int64
	for _, s := range rt.DissemStats() {
		if s != nil {
			n += s.BadDatagram.Value() + s.BadVersion.Value() + s.BadChecksum.Value()
		}
	}
	return n
}

// loopResult is what the timed engine loop saw.
type loopResult struct {
	// events counts the program's events (Step calls, minus the
	// benchmark's own period sentinels).
	events int64
	wall   time.Duration
	// periodMs is the wall time of each emulation period.
	periodMs []float64
	// depth is the live event-queue depth at each period boundary
	// (traced episodes only: Engine.Pending walks the queue).
	depth []int
}

// runLoop drives eng with Step until the virtual clock reaches until,
// stamping the wall clock at every period boundary. The stamps come from
// a sentinel event the loop schedules at each boundary; it touches no
// program state, and the program's own events keep their relative order
// because the engine orders by (time, scheduling sequence).
func runLoop(eng *sim.Engine, until time.Duration, observe func(), tr *tracer) loopResult {
	n := int(until / period)
	res := loopResult{periodMs: make([]float64, 0, n)}
	if tr != nil {
		res.depth = make([]int, 0, n)
	}
	k := 0
	done := false
	var last time.Time
	var sentinel func()
	sentinel = func() {
		now := time.Now()
		res.periodMs = append(res.periodMs, float64(now.Sub(last))/float64(time.Millisecond))
		last = now
		if tr != nil {
			res.depth = append(res.depth, eng.Pending())
		}
		k++
		if k == n {
			done = true
			return
		}
		eng.At(time.Duration(k+1)*period, sentinel)
	}
	eng.At(period, sentinel)
	var steps int64
	start := time.Now()
	last = start
	for !done && eng.Step() {
		steps++
		if observe != nil {
			observe()
		}
	}
	res.wall = time.Since(start)
	res.events = steps - int64(k)
	return res
}

const (
	metricHeapLive   = "/gc/heap/live:bytes"
	metricAllocObjs  = "/gc/heap/allocs:objects"
	metricAllocBytes = "/gc/heap/allocs:bytes"
	metricGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU   = "/cpu/classes/total:cpu-seconds"
	metricIdleCPU    = "/cpu/classes/idle:cpu-seconds"
)

// runtimeSample is a reading of the runtime/metrics the benchmark uses.
type runtimeSample struct {
	allocObjs, allocBytes uint64
	// gcCPU and busyCPU are cumulative CPU seconds spent in the GC and
	// outside the idle class.
	gcCPU, busyCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: metricAllocObjs}, {Name: metricAllocBytes},
		{Name: metricGCCPU}, {Name: metricTotalCPU}, {Name: metricIdleCPU},
	}
	metrics.Read(s)
	return runtimeSample{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		busyCPU:    s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
