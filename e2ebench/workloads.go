package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/units"
	"repro/kollaps"
)

// workloads are the benchmark's scenarios; BENCHMARK.json records why
// each exists.
var workloads = []*workload{
	// Paper Fig 8: the engine and the TCP data plane do nearly all the work.
	// It is calibrated: its work is allocator-bound like the kernel's, and
	// its raw wall time follows the host's drift as closely.
	{name: "fig8-tcp", duration: 30 * time.Second, prepare: prepareFig8, calibrated: true},
	// 64 managers: the broadcast control plane and the solver dominate.
	{name: "dissem-64", duration: 5 * time.Second, prepare: prepareDissem},
	// Short RPCs under link changes and churn: mutations, path installs
	// and handshakes every period, over 8 independent solver components.
	{name: "rpc-churn", duration: 40 * time.Second, prepare: prepareRPC},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// deploy times kollaps.Load and Deploy, the set-up layer's two calls.
func deploy(yaml string, hosts int, opts ...kollaps.Option) (*deployment, error) {
	t0 := time.Now()
	exp, err := kollaps.Load(yaml)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := exp.Deploy(hosts, opts...); err != nil {
		return nil, err
	}
	return &deployment{exp: exp, load: t1.Sub(t0), deploy: time.Since(t1)}, nil
}

// containers looks up deployed containers by name.
func containers(exp *kollaps.Experiment, names ...string) ([]*core.Container, error) {
	out := make([]*core.Container, len(names))
	for i, n := range names {
		c, err := exp.Container(n)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// ---- fig8-tcp ----

// fig8Band is the relative distance from the model within which every
// active Fig 8 cell must lie. Goodput sits a few percent under the model
// because the model shares wire bandwidth and goodput excludes headers.
const fig8Band = 0.12

// fig8YAML is the §5.4 decentralized bandwidth throttling topology.
const fig8YAML = `experiment:
  services:
    name: c1
    name: c2
    name: c3
    name: c4
    name: c5
    name: c6
    name: s1
    name: s2
    name: s3
    name: s4
    name: s5
    name: s6
  bridges:
    name: b1
    name: b2
    name: b3
  links:
    orig: c1
    dest: b1
    latency: 10
    up: 50Mbps
    orig: c2
    dest: b1
    latency: 5
    up: 50Mbps
    orig: c3
    dest: b1
    latency: 5
    up: 10Mbps
    orig: c4
    dest: b2
    latency: 10
    up: 50Mbps
    orig: c5
    dest: b2
    latency: 5
    up: 50Mbps
    orig: c6
    dest: b2
    latency: 5
    up: 10Mbps
    orig: b1
    dest: b2
    latency: 10
    up: 50Mbps
    orig: b2
    dest: b3
    latency: 10
    up: 100Mbps
    orig: s1
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s2
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s3
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s4
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s5
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s6
    dest: b3
    latency: 5
    up: 50Mbps
`

type fig8Scenario struct {
	seed int64
	// phase is the length of each of Fig 8's six phases, a sixth of the
	// episode; goodput is measured over the second half of each.
	phase time.Duration
	// starts staggers the six flows one phase apart, each jittered by up
	// to 100 ms.
	starts [6]time.Duration
	// expected is the model's rate per [phase][client] in Mb/s; 0 marks
	// an inactive cell.
	expected [6][6]float64
}

func prepareFig8(seed int64, duration time.Duration) (scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	sc := &fig8Scenario{seed: seed, phase: duration / 6, expected: experiments.Fig8Expected}
	for i := range sc.starts {
		sc.starts[i] = time.Duration(i)*sc.phase + time.Duration(rng.Int63n(int64(100*time.Millisecond)))
	}
	return sc, nil
}

func (sc *fig8Scenario) setup(tr *tracer) (*deployment, error) {
	d, err := deploy(fig8YAML, 4, kollaps.WithSeed(sc.seed))
	if err != nil {
		return nil, err
	}
	exp := d.exp
	eng := exp.Eng
	cli, err := containers(exp, "c1", "c2", "c3", "c4", "c5", "c6")
	if err != nil {
		return nil, err
	}
	srv, err := containers(exp, "s1", "s2", "s3", "s4", "s5", "s6")
	if err != nil {
		return nil, err
	}
	received := make([]int64, 6)
	for i := range srv {
		i := i
		srv[i].Stack.Listen(5201, &transport.Listener{OnAccept: func(c *transport.Conn) {
			c.OnData = func(n int) { received[i] += int64(n) }
		}})
		d.flows = append(d.flows, [2]*core.Container{cli[i], srv[i]}, [2]*core.Container{srv[i], cli[i]})
	}
	for i := range cli {
		i := i
		eng.At(sc.starts[i], func() {
			conn := tr.dial(cli[i].Stack, srv[i].IP, 5201, transport.Cubic)
			tr.write(conn, 1<<30)
			eng.Every(time.Second, func() {
				if !conn.Closed() && conn.Buffered() < 1<<29 {
					tr.write(conn, 1<<28)
				}
			})
		})
	}
	// Goodput windows: the second half of each phase.
	var before, after [6][6]int64
	for p := 0; p < 6; p++ {
		p := p
		end := time.Duration(p+1) * sc.phase
		eng.At(end-sc.phase/2, func() { copy(before[p][:], received) })
		eng.At(end, func() { copy(after[p][:], received) })
	}
	d.check = func(o *outcome) {
		window := (sc.phase / 2).Seconds()
		var sum float64
		n := 0
		for p := 0; p < 6; p++ {
			for i := 0; i < 6; i++ {
				want := sc.expected[p][i]
				if want == 0 {
					continue
				}
				got := float64(after[p][i]-before[p][i]) * 8 / window / 1e6
				e := math.Abs(got-want) / want
				sum += e
				n++
				o.expect(e <= fig8Band, "fig8-tcp phase %d c%d: %.2f Mb/s, model %.2f (band %.0f%%)",
					p+1, i+1, got, want, 100*fig8Band)
			}
		}
		o.modelErrPct = 100 * sum / float64(n)
		o.outputs = append(o.outputs, received...)
	}
	return d, nil
}

// ---- dissem-64 ----

const (
	dissemHosts        = 64
	dissemFlowsPerHost = 4
	dissemFlows        = dissemHosts * dissemFlowsPerHost
	// dissemWarmup is excluded from the delivered rates: it covers the
	// cold start, before every manager has heard every peer.
	dissemWarmup = time.Second
	// dissemOffered is each flow's constant bit rate, well above any
	// share of the bottleneck, so every flow is allocation-limited.
	dissemOffered = 8 * units.Mbps
	cbrPayload    = 1448
	cbrPort       = 9000
	// dissemBand is the relative distance from the model share within
	// which every flow's delivered rate must lie.
	dissemBand = 0.10
)

// dissemYAML is a dumbbell with one client and one server per flow,
// client access links in four RTT classes (so the RTT-aware shares differ
// per flow) and a bottleneck provisioned at 2 Mb/s per flow.
func dissemYAML() string {
	var b strings.Builder
	b.WriteString("experiment:\n  services:\n")
	for i := 0; i < dissemFlows; i++ {
		fmt.Fprintf(&b, "    name: c%d\n", i)
	}
	for i := 0; i < dissemFlows; i++ {
		fmt.Fprintf(&b, "    name: sv%d\n", i)
	}
	b.WriteString("  bridges:\n    name: b1\n    name: b2\n  links:\n")
	fmt.Fprintf(&b, "    orig: b1\n    dest: b2\n    latency: 5\n    up: %dMbps\n", 2*dissemFlows)
	for i := 0; i < dissemFlows; i++ {
		fmt.Fprintf(&b, "    orig: c%d\n    dest: b1\n    latency: %d\n    up: 100Mbps\n", i, 2+3*(i%4))
		fmt.Fprintf(&b, "    orig: sv%d\n    dest: b2\n    latency: 1\n    up: 100Mbps\n", i)
	}
	return b.String()
}

type dissemScenario struct {
	seed int64
	yaml string
	// window is the measured part of the episode, after dissemWarmup.
	window time.Duration
	// offsets phase each flow's constant-bit-rate sender within one
	// inter-packet interval.
	offsets []time.Duration
	// model is each flow's RTT-aware max-min share in bits/s, from the
	// reference allocator over a separately built copy of the topology.
	model []float64
}

func prepareDissem(seed int64, duration time.Duration) (scenario, error) {
	sc := &dissemScenario{seed: seed, yaml: dissemYAML(), window: duration - dissemWarmup}
	rng := rand.New(rand.NewSource(seed))
	interval := cbrInterval(dissemOffered)
	for i := 0; i < dissemFlows; i++ {
		sc.offsets = append(sc.offsets, time.Duration(rng.Int63n(int64(interval))))
	}
	exp, err := kollaps.Load(sc.yaml)
	if err != nil {
		return nil, err
	}
	g, _, err := exp.Topology.Build()
	if err != nil {
		return nil, err
	}
	caps := make(map[int]units.Bandwidth, g.NumLinks())
	for l := 0; l < g.NumLinks(); l++ {
		caps[l] = g.Link(l).Bandwidth
	}
	flows := make([]core.FlowDemand, dissemFlows)
	for i := range flows {
		p, err := servicePath(g, fmt.Sprintf("c%d", i), fmt.Sprintf("sv%d", i))
		if err != nil {
			return nil, err
		}
		flows[i] = core.FlowDemand{ID: core.FlowID(i), Links: p.Links, RTT: p.RTT()}
	}
	for _, a := range core.AllocateReference(caps, flows) {
		sc.model = append(sc.model, float64(a.Rate))
	}
	return sc, nil
}

// servicePath is the shortest path between two named services of g.
func servicePath(g *graph.Graph, from, to string) (*graph.Path, error) {
	src, ok := g.Lookup(from)
	dst, ok2 := g.Lookup(to)
	if !ok || !ok2 {
		return nil, fmt.Errorf("unknown service %q or %q", from, to)
	}
	p := g.ShortestPaths(src)[dst]
	if p == nil {
		return nil, fmt.Errorf("no path from %s to %s", from, to)
	}
	return p, nil
}

// cbrInterval is the inter-packet gap of a constant-bit-rate sender of
// cbrPayload-byte datagrams.
func cbrInterval(rate units.Bandwidth) time.Duration {
	return time.Duration(float64(cbrPayload*8) / float64(rate) * float64(time.Second))
}

func (sc *dissemScenario) setup(tr *tracer) (*deployment, error) {
	d, err := deploy(sc.yaml, dissemHosts, kollaps.WithSeed(sc.seed))
	if err != nil {
		return nil, err
	}
	exp := d.exp
	eng := exp.Eng
	received := make([]int64, dissemFlows)
	interval := cbrInterval(dissemOffered)
	for i := 0; i < dissemFlows; i++ {
		i := i
		pair, err := containers(exp, fmt.Sprintf("c%d", i), fmt.Sprintf("sv%d", i))
		if err != nil {
			return nil, err
		}
		cli, srv := pair[0], pair[1]
		d.flows = append(d.flows, [2]*core.Container{cli, srv})
		srv.Stack.HandleUDP(cbrPort, func(_ packet.IP, _ uint16, size int, _ any) {
			received[i] += int64(size)
		})
		eng.At(sc.offsets[i], func() {
			eng.Every(interval, func() { tr.sendUDP(cli.Stack, srv.IP, cbrPort, cbrPayload) })
		})
	}
	atWarmup := make([]int64, dissemFlows)
	eng.At(dissemWarmup, func() { copy(atWarmup, received) })
	d.check = func(o *outcome) {
		window := sc.window.Seconds()
		var sum float64
		for i := range received {
			got := float64(received[i]-atWarmup[i]) * 8 / window
			want := sc.model[i]
			e := math.Abs(got-want) / want
			sum += e
			o.expect(e <= dissemBand, "dissem-64 flow %d: %.3f Mb/s, model %.3f (band %.0f%%)",
				i, got/1e6, want/1e6, 100*dissemBand)
		}
		o.modelErrPct = 100 * sum / float64(len(received))
		o.outputs = append(o.outputs, received...)

		// Broadcast unicasts every manager's report to every peer, once per
		// period: N·(N-1) datagrams per period.
		periods := int64((sc.window + dissemWarmup) / period)
		sent := exp.DissemSummary().DatagramsSent
		o.expect(sent == dissemHosts*(dissemHosts-1)*periods,
			"dissem-64: %d datagrams in %d periods, want N(N-1)=%d per period", sent, periods, dissemHosts*(dissemHosts-1))
	}
	return d, nil
}

// ---- rpc-churn ----

const (
	rpcHosts            = 16
	rpcRegions          = 8
	rpcClientsPerRegion = 4
	rpcClientsTotal     = rpcRegions * rpcClientsPerRegion
	// rpcThink is the mean of a client's exponential think time between
	// RPCs. The pauses make the set of active flows change from period to
	// period; a manager sees its peers' flows one period late, which is
	// the error the accuracy probe measures.
	rpcThink     = 50 * time.Millisecond
	rpcReqBytes  = 200
	rpcRespBytes = 32 << 10
	rpcPort      = 80
	// rpcTimeout abandons an RPC (its connection is aborted and the
	// client moves on). Only a churned client may time out.
	rpcTimeout = 5 * time.Second
	// rpcLinkEvery is the interval of the server-link bandwidth changes.
	rpcLinkEvery = 500 * time.Millisecond
	// rpcChurnRate is the client churn rate per virtual second, with
	// rpcChurnDowntime the mean downtime: one client down on average, in
	// many short outages, so that the load a seed draws varies little.
	rpcChurnRate     = 4.0
	rpcChurnDowntime = 250 * time.Millisecond
	// rpcProbeEvery samples the accuracy probe every period: with flows
	// starting and stopping every period, sparser samples would leave the
	// reading to chance.
	rpcProbeEvery = 1
)

func rpcClientName(r, j int) string { return fmt.Sprintf("c%d%d", r, j) }
func rpcServerName(r int) string    { return fmt.Sprintf("sv%d", r) }
func rpcBridgeName(r int) string    { return fmt.Sprintf("r%d", r) }

// rpcYAML gives each region its own bridge: clients on 100 Mb/s access
// links, the server behind a 20 Mb/s link, and a 1 Gb/s uplink to a core
// bridge that no RPC crosses. Each region is one solver component.
func rpcYAML() string {
	var b strings.Builder
	b.WriteString("experiment:\n  services:\n")
	for r := 0; r < rpcRegions; r++ {
		for j := 0; j < rpcClientsPerRegion; j++ {
			fmt.Fprintf(&b, "    name: %s\n", rpcClientName(r, j))
		}
		fmt.Fprintf(&b, "    name: %s\n", rpcServerName(r))
	}
	b.WriteString("  bridges:\n    name: core\n")
	for r := 0; r < rpcRegions; r++ {
		fmt.Fprintf(&b, "    name: %s\n", rpcBridgeName(r))
	}
	b.WriteString("  links:\n")
	for r := 0; r < rpcRegions; r++ {
		br := rpcBridgeName(r)
		fmt.Fprintf(&b, "    orig: %s\n    dest: core\n    latency: 10\n    up: 1Gbps\n", br)
		fmt.Fprintf(&b, "    orig: %s\n    dest: %s\n    latency: 2\n    up: 20Mbps\n", rpcServerName(r), br)
		for j := 0; j < rpcClientsPerRegion; j++ {
			fmt.Fprintf(&b, "    orig: %s\n    dest: %s\n    latency: %d\n    up: 100Mbps\n",
				rpcClientName(r, j), br, 1+r+j)
		}
	}
	return b.String()
}

// linkChange is one scheduled server-link bandwidth change.
type linkChange struct {
	region int
	up     units.Bandwidth
}

type rpcScenario struct {
	seed int64
	yaml string
	// starts offsets each client's first request.
	starts []time.Duration
	// changes holds one server-link change per rpcLinkEvery.
	changes []linkChange
}

func prepareRPC(seed int64, duration time.Duration) (scenario, error) {
	sc := &rpcScenario{seed: seed, yaml: rpcYAML()}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rpcClientsTotal; i++ {
		sc.starts = append(sc.starts, time.Duration(rng.Int63n(int64(50*time.Millisecond))))
	}
	for t := rpcLinkEvery; t < duration; t += rpcLinkEvery {
		sc.changes = append(sc.changes, linkChange{
			region: rng.Intn(rpcRegions),
			up:     units.Bandwidth(10+rng.Intn(21)) * units.Mbps,
		})
	}
	return sc, nil
}

// rpcClient is one client's tally. A client issues sequential RPCs, each
// on a fresh TCP connection (the pattern of apps.CurlClient), and gives up
// on one after rpcTimeout.
type rpcClient struct {
	name      string
	completed int64
	timedOut  int64
	// churned is set once the client has gone down; failed counts RPCs
	// that timed out before that.
	churned bool
	failed  int64
}

func (sc *rpcScenario) setup(tr *tracer) (*deployment, error) {
	d, err := deploy(sc.yaml, rpcHosts, kollaps.WithSeed(sc.seed), kollaps.WithAccuracyProbe(rpcProbeEvery))
	if err != nil {
		return nil, err
	}
	exp := d.exp
	eng := exp.Eng
	var clients []*rpcClient
	var clientNames []string
	byNode := make(map[graph.NodeID]*rpcClient)
	for r := 0; r < rpcRegions; r++ {
		srv, err := exp.Container(rpcServerName(r))
		if err != nil {
			return nil, err
		}
		apps.NewHTTPServer(srv.Stack, rpcPort, rpcReqBytes, rpcRespBytes)
		for j := 0; j < rpcClientsPerRegion; j++ {
			c, err := exp.Container(rpcClientName(r, j))
			if err != nil {
				return nil, err
			}
			d.flows = append(d.flows, [2]*core.Container{c, srv}, [2]*core.Container{srv, c})
			cl := &rpcClient{name: c.Name}
			clients = append(clients, cl)
			clientNames = append(clientNames, c.Name)
			byNode[c.Node] = cl
			st, dst := c.Stack, srv.IP
			// Think times come from a per-client source seeded by the
			// scenario, so every episode replays them.
			think := rand.New(rand.NewSource(sc.seed*rpcClientsTotal + int64(len(clients))))
			var issue func()
			next := func() {
				eng.After(time.Duration(think.ExpFloat64()*float64(rpcThink)), issue)
			}
			issue = func() {
				done := false
				conn := tr.dial(st, dst, rpcPort, transport.Cubic)
				got := 0
				var timer sim.Timer
				conn.OnConnected = func() { tr.write(conn, rpcReqBytes) }
				conn.OnData = func(n int) {
					got += n
					if got >= rpcRespBytes && !done {
						done = true
						timer.Stop()
						cl.completed++
						conn.Close()
						next()
					}
				}
				timer = eng.After(rpcTimeout, func() {
					if done {
						return
					}
					done = true
					conn.Abort()
					cl.timedOut++
					if !cl.churned {
						cl.failed++
					}
					next()
				})
			}
			eng.At(sc.starts[len(clients)-1], issue)
		}
	}
	var linkErrs []error
	for i, ch := range sc.changes {
		ch := ch
		eng.At(time.Duration(i+1)*rpcLinkEvery, func() {
			if err := tr.setLink(exp, rpcServerName(ch.region), rpcBridgeName(ch.region), kollaps.Up(ch.up)); err != nil {
				linkErrs = append(linkErrs, err)
			}
		})
	}
	if _, err := exp.Churn(rpcChurnRate, kollaps.ChurnTargets(clientNames...), kollaps.ChurnDowntime(rpcChurnDowntime)); err != nil {
		return nil, err
	}
	// Mark every client that ever goes down as churned: after each event
	// that moved the topology generation, look for removed client links.
	gen := exp.Runtime.TopologyGen()
	d.observe = func() {
		if exp.Runtime.TopologyGen() == gen {
			return
		}
		gen = exp.Runtime.TopologyGen()
		g := exp.Runtime.State().Graph
		for l := 0; l < g.NumLinks(); l++ {
			if !g.LinkRemoved(l) {
				continue
			}
			lk := g.Link(l)
			for _, n := range [2]graph.NodeID{lk.From, lk.To} {
				if cl := byNode[n]; cl != nil {
					cl.churned = true
				}
			}
		}
	}
	d.check = func(o *outcome) {
		var total int64
		for _, cl := range clients {
			o.attempted += int(cl.completed + cl.timedOut)
			for k := int64(0); k < cl.failed; k++ {
				o.failures = append(o.failures, fmt.Sprintf("rpc-churn: an RPC of client %s timed out, and it never went down", cl.name))
			}
			total += cl.completed
			o.outputs = append(o.outputs, cl.completed, cl.timedOut)
		}
		o.expect(total > 0, "rpc-churn: no RPC completed")
		o.expect(len(linkErrs) == 0, "rpc-churn: %d SetLink calls failed: %v", len(linkErrs), linkErrs)
		// The probe's per-period mean deviation spikes for the few periods
		// in which a churned client's last report still lingers in its
		// peers' views; the median reads the steady error of the views'
		// one-period lag instead of how many churn events a seed drew.
		var devs []float64
		for _, p := range exp.AccuracyProbe().Mean.Points {
			devs = append(devs, p.Value)
		}
		o.expect(len(devs) > 0, "rpc-churn: no accuracy-probe samples")
		o.modelErrPct = 100 * median(devs)
	}
	return d, nil
}
