package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
	"repro/kollaps"
)

// tracer times the benchmark's own calls into the program's layers and
// holds the CPU profile of a traced episode. A nil *tracer makes the same
// calls untimed, so one code path serves traced and untraced episodes.
type tracer struct {
	// callNs samples the wall time of the benchmark's transport calls
	// (Dial, Write, SendUDP).
	callNs []float64
	// udpCalls counts SendUDP calls; one in udpSampleEvery is timed.
	udpCalls int
	// mutationUs is the wall time of each topology mutation the
	// benchmark makes.
	mutationUs []float64
	profile    bytes.Buffer
}

// udpSampleEvery thins SendUDP timing: a constant-bit-rate workload makes
// hundreds of thousands of calls per virtual second.
const udpSampleEvery = 64

func (t *tracer) dial(st *transport.Stack, dst packet.IP, port uint16, cc transport.CongestionControl) *transport.Conn {
	if t == nil {
		return st.Dial(dst, port, cc)
	}
	start := time.Now()
	c := st.Dial(dst, port, cc)
	t.callNs = append(t.callNs, float64(time.Since(start)))
	return c
}

func (t *tracer) write(c *transport.Conn, n int) {
	if t == nil {
		c.Write(n)
		return
	}
	start := time.Now()
	c.Write(n)
	t.callNs = append(t.callNs, float64(time.Since(start)))
}

func (t *tracer) sendUDP(st *transport.Stack, dst packet.IP, port uint16, size int) {
	if t == nil {
		st.SendUDP(dst, port, port, size, nil)
		return
	}
	t.udpCalls++
	if t.udpCalls%udpSampleEvery != 0 {
		st.SendUDP(dst, port, port, size, nil)
		return
	}
	start := time.Now()
	st.SendUDP(dst, port, port, size, nil)
	t.callNs = append(t.callNs, float64(time.Since(start)))
}

func (t *tracer) setLink(exp *kollaps.Experiment, orig, dest string, opts ...kollaps.LinkOption) error {
	if t == nil {
		return exp.SetLink(orig, dest, opts...)
	}
	start := time.Now()
	err := exp.SetLink(orig, dest, opts...)
	t.mutationUs = append(t.mutationUs, float64(time.Since(start))/float64(time.Microsecond))
	return err
}

func (t *tracer) startProfile() error {
	t.profile.Reset()
	if err := pprof.StartCPUProfile(&t.profile); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

func (t *tracer) stopProfile() { pprof.StopCPUProfile() }

// layers names the program's layers after its modules, in report order.
// Each CPU sample is charged to the first layer found walking its stack
// from the leaf: a frame of a repository package, or an allocator/GC
// frame of the Go runtime. Helper packages (the standard library outside
// the runtime, internal/metrics, units, wire) are transparent, so a heap
// operation or a counter increment is charged to the layer calling it.
var layers = []string{"sim", "runtime", "dataplane", "core", "dissem", "topology", "kollaps", "apps", "other"}

// layerOfPackage maps repository packages to layers.
var layerOfPackage = map[string]string{
	"repro/internal/sim":       "sim",
	"repro/internal/transport": "dataplane",
	"repro/internal/tcal":      "dataplane",
	"repro/internal/netem":     "dataplane",
	"repro/internal/fabric":    "dataplane",
	"repro/internal/packet":    "dataplane",
	"repro/internal/core":      "core",
	"repro/internal/obs":       "core",
	"repro/internal/dissem":    "dissem",
	"repro/internal/metadata":  "dissem",
	"repro/internal/chaos":     "dissem",
	"repro/internal/topology":  "topology",
	"repro/internal/graph":     "topology",
	"repro/kollaps":            "kollaps",
	"repro/internal/apps":      "apps",
	// The benchmark's own code plays the applications (senders,
	// receivers, RPC clients) and runs the loop; its package is "main"
	// when built as the command and its import path under go test.
	"main":           "apps",
	"repro/e2ebench": "apps",
}

// allocGCPrefixes are the Go runtime's allocator and garbage-collector
// entry points.
var allocGCPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.wbBuf", "runtime.newstack",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)",
}

// packageOf extracts the package path of a fully qualified function name
// such as "repro/internal/sim.(*Engine).Step".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf charges one stack (function names, leaf first) to a layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		pkg := packageOf(fn)
		if l, ok := layerOfPackage[pkg]; ok {
			return l
		}
		if pkg == "runtime/pprof" {
			return "other" // the profiler's own work
		}
		for _, p := range allocGCPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime"
			}
		}
	}
	// Scheduler, timers and other runtime work with no program caller.
	if len(stack) > 0 && strings.HasPrefix(packageOf(stack[0]), "runtime") {
		return "runtime"
	}
	return "other"
}

// cpuShares attributes the CPU profiles to layers, in percent of all
// samples; every layer is present and the shares sum to 100.
func cpuShares(profiles [][]byte) (map[string]float64, int64, error) {
	weights := make(map[string]int64)
	var total int64
	for _, raw := range profiles {
		err := forEachSample(raw, func(stack []string, cpuNs int64) {
			weights[layerOf(stack)] += cpuNs
			total += cpuNs
		})
		if err != nil {
			return nil, 0, err
		}
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
		if total > 0 {
			shares[l] = 100 * float64(weights[l]) / float64(total)
		}
	}
	return shares, total, nil
}
