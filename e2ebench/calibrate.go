package main

import (
	"runtime"
	"time"
)

// A calibrated workload's wall-time metrics are scaled to the speed of
// the reference machine. The benchmark shares its host with other virtual
// machines, and the speed they leave it drifts by about ±20% over
// minutes, slower than a run: a run's raw medians move with the
// neighbours, however long it is. So before each episode of a calibrated
// workload the run times a fixed kernel that uses the processor the way
// the emulation does (the Go allocator and GC, short-lived pointerful
// objects), and reports
//
//	metric × calibrationRef / median(kernel times of the run)
//
// The kernel is the benchmark's own code and touches no program state, so
// a change to the program moves only the numerator. The raw values are
// printed on stderr.
//
// Only fig8-tcp is calibrated. Its ~0.75 µs events are allocator-bound
// like the kernel: in six 20 s runs whose raw wall time drifted from 38.7
// to 54.9 ms per virtual second (spread 0.30), the scaled value spread
// 0.04. The other workloads do more computation per event and follow the
// drift at about a third of the kernel's amplitude, so scaling them
// over-corrects: on rpc-churn it raised the spread from 0.10 to 0.23.

// calibrationRef is the median kernel time on the reference machine of
// e2ebench/README.md ("Environment of the committed bounds").
const calibrationRef = 30 * time.Millisecond

const (
	// calibrationReps kernel samples are taken before each episode.
	calibrationReps = 4
	// calibrationNodes is the kernel's allocation count, about 30 ms on
	// the reference machine.
	calibrationNodes = 750_000
	// calibrationChain is how many nodes a chain links before it is
	// dropped, so each GC cycle finds a little live data to mark.
	calibrationChain = 64
)

type calNode struct {
	a, b int64
	next *calNode
}

var calSink int64

// calibrate times calibrationReps runs of the kernel.
func calibrate() []time.Duration {
	runtime.GC()
	out := make([]time.Duration, calibrationReps)
	for r := range out {
		start := time.Now()
		var head *calNode
		for i := 0; i < calibrationNodes; i++ {
			head = &calNode{a: int64(i), b: int64(i) * 3, next: head}
			if i%calibrationChain == 0 {
				calSink += head.b
				head = nil
			}
		}
		if head != nil {
			calSink += head.a
		}
		out[r] = time.Since(start)
	}
	return out
}

// calibration is a run's machine-speed factor: the reference kernel time
// over the run's median kernel time. Raw wall times are multiplied by it.
func calibration(samples []time.Duration) float64 {
	xs := make([]float64, len(samples))
	for i, d := range samples {
		xs[i] = float64(d)
	}
	return float64(calibrationRef) / median(xs)
}
