package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/metadata"
)

// layerReadings are one traced episode's per-layer numbers, read from
// runtime/metrics around the timed loop and from the program's exported
// counters once after it.
type layerReadings struct {
	allocObjs, allocBytes uint64
	gcCPUPct              float64
	packets, drops        int64
	// Manager-loop counters summed over hosts.
	solveNs, iterations, solvedFlows, shapingOps float64
	datagrams                                    int64
	staleP99                                     float64
	badFrames                                    int64
	gens                                         uint64
	// hosts, flowsPerHost and wide size the isolated dissemination ring
	// after the deployment.
	hosts, flowsPerHost int
	wide                bool
}

// readLayers reads the per-layer counters of a deployment after its timed
// loop; gen is the topology generation the loop started from. Every accessor it uses is free of side effects: LinkStats, the
// TCAL's public drop counter, Registry.Snapshot, DissemSummary and the
// topology generation. (TCAL.Usage and Requested reset the counters the
// Managers poll and must never be called here.)
func readLayers(d *deployment, before, after runtimeSample, gen uint64) *layerReadings {
	rt := d.exp.Runtime
	lr := &layerReadings{
		allocObjs:  after.allocObjs - before.allocObjs,
		allocBytes: after.allocBytes - before.allocBytes,
		gens:       rt.TopologyGen() - gen,
		hosts:      len(rt.Managers()),
		wide:       metadata.Wide(rt.State().Graph.NumLinks()),
	}
	if busy := after.busyCPU - before.busyCPU; busy > 0 {
		lr.gcCPUPct = 100 * (after.gcCPU - before.gcCPU) / busy
	}
	lr.flowsPerHost = (len(d.flows) + lr.hosts - 1) / lr.hosts
	for l := 0; l < rt.Cluster.Graph().NumLinks(); l++ {
		_, pkts, dropped := rt.Cluster.LinkStats(l)
		lr.packets += pkts
		lr.drops += dropped
	}
	for _, c := range rt.Containers() {
		lr.drops += c.TCAL().UnmatchedDropped
	}
	snap := d.exp.Metrics().Snapshot()
	lr.solveNs = sumPrefix(snap, "kollaps_solver_wall_ns_total")
	lr.iterations = sumPrefix(snap, "kollaps_manager_iterations")
	lr.solvedFlows = sumPrefix(snap, "kollaps_solver_flows_total")
	lr.shapingOps = sumPrefix(snap, "kollaps_tcal_shaping_ops_total")
	sum := d.exp.DissemSummary()
	lr.datagrams = sum.DatagramsSent
	lr.staleP99 = sum.StalenessP99Ms
	lr.badFrames = badFrames(rt)
	return lr
}

// sumPrefix sums the registry entries whose name starts with prefix (one
// per host label). The entries are whole counts, so the sum is exact in any
// order.
func sumPrefix(snap map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range snap {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// measureLayers produces the per-layer metrics: half the budget plays
// untraced episodes (the base of the trace overhead), half traced ones.
func measureLayers(w *workload, seed int64, budget time.Duration, log io.Writer) (result, error) {
	var res result
	sc, ref, err := warmUp(w, seed, &res)
	if err != nil {
		return res, err
	}
	plain, err := episodes(w, sc, ref, budget/2, 2, false, &res)
	if err != nil {
		return res, err
	}
	traced, err := episodes(w, sc, ref, budget/2, 2, true, &res)
	if err != nil {
		return res, err
	}

	var loads, deploys, plainWalls, tracedWalls, depth, callNs, mutUs []float64
	var allocsPerEvent, bytesPerVsec, gcPct []float64
	var profiles [][]byte
	for _, ep := range append(plain, traced...) {
		for i := range ep.loads {
			loads = append(loads, ms(ep.loads[i]))
			deploys = append(deploys, ms(ep.deploys[i]))
		}
	}
	for _, ep := range plain {
		plainWalls = append(plainWalls, ms(ep.loop.wall)/ep.vsec)
	}
	for _, ep := range traced {
		tracedWalls = append(tracedWalls, ms(ep.loop.wall)/ep.vsec)
		for _, q := range ep.loop.depth {
			depth = append(depth, float64(q))
		}
		callNs = append(callNs, ep.tracer.callNs...)
		mutUs = append(mutUs, ep.tracer.mutationUs...)
		lr := ep.layer
		allocsPerEvent = append(allocsPerEvent, float64(lr.allocObjs)/float64(ep.loop.events))
		bytesPerVsec = append(bytesPerVsec, float64(lr.allocBytes)/ep.vsec)
		gcPct = append(gcPct, lr.gcCPUPct)
		profiles = append(profiles, ep.tracer.profile.Bytes())
	}
	// Counters of the simulated program repeat exactly per seed (the
	// digest check enforces it), so one traced episode gives them.
	lr := traced[0].layer
	vsec := ref.vsec
	periods := float64(w.duration / period)
	perLoop := func(v float64) float64 {
		if lr.iterations == 0 {
			return 0
		}
		return v / lr.iterations
	}
	eventsPerVsec := float64(ref.loop.events) / vsec
	depthP50 := percentile(depth, 50)
	holdNs, holdAllocs := holdModel(int(depthP50), eventsPerVsec, seed)
	ring, err := dissemRing(lr.hosts, lr.flowsPerHost, lr.wide)
	if err != nil {
		return res, err
	}
	shares, cpuNs, err := cpuShares(profiles)
	if err != nil {
		return res, err
	}

	res.add("setup.load_ms", median(loads), "ms", "kollaps.Load")
	res.add("setup.deploy_ms", median(deploys), "ms", "Experiment.Deploy")
	res.add("sim.events_per_vsec", eventsPerVsec, "1/vsec", "Engine.Step calls, exact")
	res.add("sim.queue_depth.p50", depthP50, "events", fmt.Sprintf("Engine.Pending at %d period boundaries", len(depth)))
	res.add("sim.hold_ns_per_event", holdNs, "ns", fmt.Sprintf("hold model at depth %d", int(depthP50)))
	res.add("sim.hold_allocs_per_event", holdAllocs, "allocs", "hold model")
	res.add("runtime.allocs_per_event", median(allocsPerEvent), "allocs", "runtime/metrics around the loop")
	res.add("runtime.alloc_bytes_per_vsec", median(bytesPerVsec), "B/vsec", "runtime/metrics around the loop")
	res.add("runtime.gc_cpu_pct", median(gcPct), "%", "GC share of busy CPU")
	res.add("dataplane.packets_per_vsec", float64(lr.packets)/vsec, "1/vsec", "cluster LinkStats")
	res.add("dataplane.drops_per_vsec", float64(lr.drops)/vsec, "1/vsec", "cluster LinkStats + TCAL unmatched")
	res.add("transport.call_ns.p50", percentile(callNs, 50), "ns", fmt.Sprintf("%d timed Dial/Write/SendUDP calls", len(callNs)))
	res.add("core.solve_ns_per_period", perLoop(lr.solveNs), "ns", "per manager loop, registry counters")
	res.add("core.solved_flows_per_period", perLoop(lr.solvedFlows), "flows", "per manager loop")
	res.add("core.shaping_ops_per_period", perLoop(lr.shapingOps), "ops", "per manager loop")
	res.add("dissem.datagrams_per_period", float64(lr.datagrams)/periods, "datagrams", "deployment-wide")
	res.add("dissem.bad_frames", float64(lr.badFrames), "frames", "must be 0")
	res.add("dissem.staleness_ms.p99", lr.staleP99, "ms", "DissemSummary")
	res.add("dissem.publish_ns", ring.publishNs, "ns", fmt.Sprintf("isolated ring of %d nodes, %d flows each", lr.hosts, lr.flowsPerHost))
	res.add("dissem.receive_ns", ring.receiveNs, "ns", "isolated ring")
	res.add("dissem.view_ns", ring.viewNs, "ns", "isolated ring")
	res.add("topology.mutation_us.p50", percentile(mutUs, 50), "us", fmt.Sprintf("%d timed SetLink calls", len(mutUs)))
	res.add("topology.gens_per_vsec", float64(lr.gens)/vsec, "1/vsec", "Runtime.TopologyGen")
	for _, l := range layers {
		res.add("cpu_pct."+l, shares[l], "%", fmt.Sprintf("of %.2f CPU s profiled", float64(cpuNs)/1e9))
	}
	res.add("trace.overhead_pct", 100*(median(tracedWalls)/median(plainWalls)-1), "%",
		fmt.Sprintf("%d traced vs %d untraced episodes", len(traced), len(plain)))
	fmt.Fprintf(log, "e2ebench: %d untraced + %d traced episodes, digest %016x\n", len(plain), len(traced), ref.digest)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
