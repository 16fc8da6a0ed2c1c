package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// episodes replays the workload's episode until budget has passed, and at
// least min times, checking each replay against the reference digest.
func episodes(w *workload, sc scenario, ref *episodeResult, budget time.Duration, min int, traced bool, res *result) ([]*episodeResult, error) {
	var eps []*episodeResult
	start := time.Now()
	var last time.Duration
	// Stop before an episode that would overrun the budget, so a run
	// takes about as long as asked.
	for len(eps) < min || time.Since(start)+last <= budget {
		epStart := time.Now()
		var kernel []time.Duration
		if w.calibrated {
			kernel = calibrate()
		}
		var tr *tracer
		if traced {
			tr = &tracer{}
		}
		ep, err := runEpisode(w, sc, tr)
		if err != nil {
			return nil, err
		}
		ep.kernel = kernel
		tally(res, ep)
		res.attempted++
		if ep.digest != ref.digest {
			res.fail("episode %d: simulated outputs %016x differ from the reference %016x at the same seed",
				len(eps)+1, ep.digest, ref.digest)
		}
		eps = append(eps, ep)
		last = time.Since(epStart)
	}
	return eps, nil
}

// tally adds an episode's checked operations to the run's result.
func tally(res *result, ep *episodeResult) {
	res.attempted += ep.out.attempted
	for _, f := range ep.out.failures {
		res.fail("%s", f)
	}
}

// warmUp prepares the inputs and plays the untimed reference episode.
func warmUp(w *workload, seed int64, res *result) (scenario, *episodeResult, error) {
	sc, err := w.prepare(seed, w.duration)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	ref, err := runEpisode(w, sc, nil)
	if err != nil {
		return nil, nil, err
	}
	tally(res, ref)
	return sc, ref, nil
}

// measureEndToEnd produces the end-to-end metrics.
func measureEndToEnd(w *workload, seed int64, budget time.Duration, log io.Writer) (result, error) {
	var res result
	sc, ref, err := warmUp(w, seed, &res)
	if err != nil {
		return res, err
	}
	// At least three episodes, so that every median has three samples
	// however slow the machine.
	eps, err := episodes(w, sc, ref, budget, 3, false, &res)
	if err != nil {
		return res, err
	}
	// Period percentiles are taken per episode and their median
	// reported, so that a few seconds of interference on a shared machine
	// move one episode's reading rather than the pooled tail.
	var setups, walls, heaps, p50s, p90s []float64
	var kernel []time.Duration
	for _, ep := range eps {
		for _, s := range ep.setups {
			setups = append(setups, s.Seconds())
		}
		walls = append(walls, ms(ep.loop.wall)/ep.vsec)
		heaps = append(heaps, ep.heapMB)
		p50s = append(p50s, percentile(ep.loop.periodMs, 50))
		p90s = append(p90s, percentile(ep.loop.periodMs, 90))
		kernel = append(kernel, ep.kernel...)
	}
	perEp := len(eps[0].loop.periodMs)
	n := len(eps)
	// On a calibrated workload the wall-time metrics are scaled to the
	// reference machine's speed (calibrate.go); the notes give the raw
	// medians.
	f, scaled := 1.0, "raw"
	if w.calibrated {
		f = calibration(kernel)
		scaled = fmt.Sprintf("scaled by %.3f from %d kernel samples", f, len(kernel))
	}
	res.add("setup_s", median(setups), "s",
		fmt.Sprintf("median of %d set-ups (Load+Deploy+wiring)", len(setups)))
	res.add("wall_ms_per_vsec", f*median(walls), "ms/vsec",
		fmt.Sprintf("median of %d episodes of %.0f virtual s, raw %.1f (range %.1f-%.1f), %s",
			n, w.duration.Seconds(), median(walls), percentile(walls, 0), percentile(walls, 100), scaled))
	res.add("period_wall_ms.p50", f*median(p50s), "ms",
		fmt.Sprintf("median over %d episodes of %d periods, raw %.3f", n, perEp, median(p50s)))
	res.add("period_wall_ms.p90", f*median(p90s), "ms",
		fmt.Sprintf("median over %d episodes of %d periods, %d beyond each, raw %.3f", n, perEp, perEp/10, median(p90s)))
	res.add("heap_live_mb", median(heaps), "MB", fmt.Sprintf("median of %d episodes", n))
	res.add("model_err_pct", ref.out.modelErrPct, "%", "deterministic per seed")
	res.add("ctrl_bytes_per_period", ref.ctrlBytesPerPeriod, "bytes/period",
		"per manager; deterministic per seed")
	fmt.Fprintf(log, "e2ebench: %d episodes, digest %016x, %d events per episode\n", n, ref.digest, ref.loop.events)
	return res, nil
}

// median returns the middle value of xs (the mean of the middle two for
// an even count), or 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
