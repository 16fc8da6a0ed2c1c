package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/dissem"
	"repro/internal/metadata"
	"repro/internal/sim"
)

// holdEvents is the number of events an isolated hold-model replay times.
const holdEvents = 200_000

// holdModel replays the classic hold model on a fresh engine filled to
// depth live events: every step pops the earliest event and schedules one
// more, at a uniformly random offset whose mean is the workload's mean
// event residence time (depth / event rate, by Little's law). Handlers are
// no-ops, so it times the event queue alone. It returns wall ns and heap
// allocations per event.
func holdModel(depth int, eventsPerVsec float64, seed int64) (nsPerEvent, allocsPerEvent float64) {
	if depth < 1 {
		depth = 1
	}
	residence := time.Millisecond
	if eventsPerVsec > 0 {
		residence = time.Duration(float64(depth) / eventsPerVsec * float64(time.Second))
	}
	span := int64(2*residence) + 1
	eng := sim.NewEngine(seed)
	rng := rand.New(rand.NewSource(seed))
	noop := func() {}
	for i := 0; i < depth; i++ {
		eng.At(time.Duration(rng.Int63n(span)), noop)
	}
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	for i := 0; i < holdEvents; i++ {
		eng.Step()
		eng.At(eng.Now()+time.Duration(rng.Int63n(span)), noop)
	}
	elapsed := time.Since(start)
	after := readRuntime()
	return float64(elapsed) / holdEvents, float64(after.allocObjs-before.allocObjs) / holdEvents
}

// ringRounds is the number of emulation periods the isolated
// dissemination ring plays.
const ringRounds = 20

// memTransport queues datagrams in memory, addressed by host.
type memTransport struct{ queue *[]datagram }

type datagram struct {
	to      int
	payload []byte
}

func (t memTransport) SendTo(host int, payload []byte) {
	*t.queue = append(*t.queue, datagram{to: host, payload: payload})
}

// dissemCalls is the per-call wall time of the dissemination layer's three
// calls on the emulation loop's path.
type dissemCalls struct {
	publishNs, receiveNs, viewNs float64
}

// dissemRing times an isolated ring of hosts default-configured
// dissemination nodes joined by an in-memory transport. Each round, every
// node publishes flowsPerHost flow records, every queued datagram is
// received, and every node reads its remote view.
func dissemRing(hosts, flowsPerHost int, wide bool) (dissemCalls, error) {
	var queue []datagram
	nodes := make([]dissem.Node, hosts)
	for h := range nodes {
		n, err := dissem.New(dissem.Config{NumHosts: hosts, Wide: wide}, h, memTransport{queue: &queue})
		if err != nil {
			return dissemCalls{}, fmt.Errorf("dissem ring: %w", err)
		}
		nodes[h] = n
	}
	msgs := make([]metadata.Message, hosts)
	for h := range msgs {
		msgs[h].Host = uint16(h)
		for f := 0; f < flowsPerHost; f++ {
			msgs[h].Flows = append(msgs[h].Flows, metadata.FlowRecord{
				BPS:   uint32(1_000_000 + 1000*f),
				Links: []uint16{uint16(2 * (h*flowsPerHost + f)), 0, uint16(2*(h*flowsPerHost+f) + 1)},
			})
		}
	}
	var pubNs, recvNs, viewNs time.Duration
	var pubs, recvs, views int
	var buf []dissem.RemoteFlow
	for r := 1; r <= ringRounds; r++ {
		now := time.Duration(r) * period
		queue = queue[:0]
		start := time.Now()
		for h, n := range nodes {
			n.Publish(now, &msgs[h])
		}
		pubNs += time.Since(start)
		pubs += hosts
		start = time.Now()
		for _, d := range queue {
			nodes[d.to].Receive(now, d.payload)
		}
		recvNs += time.Since(start)
		recvs += len(queue)
		start = time.Now()
		for _, n := range nodes {
			buf = n.AppendRemoteFlows(now, 3*period, buf[:0])
		}
		viewNs += time.Since(start)
		views += hosts
	}
	if want := (hosts - 1) * flowsPerHost; len(buf) != want && hosts > 1 {
		return dissemCalls{}, fmt.Errorf("dissem ring: view holds %d flows, want %d", len(buf), want)
	}
	calls := dissemCalls{publishNs: float64(pubNs) / float64(pubs), viewNs: float64(viewNs) / float64(views)}
	if recvs > 0 {
		calls.receiveNs = float64(recvNs) / float64(recvs)
	}
	return calls, nil
}
