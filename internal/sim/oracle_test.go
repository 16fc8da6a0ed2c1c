package sim

// This file freezes the container/heap engine that preceded the slab
// engine in sim.go, as the reference FuzzEngineOracle and
// BenchmarkEngineHold compare it against (the way core.AllocateReference
// serves the solver). Only identifiers are renamed; the logic is the
// original's, including lazy cancellation through a shared *bool.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// oracleEngine is a discrete-event simulator. It is not safe for concurrent use:
// all simulated work happens on the caller's goroutine inside Run/Step.
type oracleEngine struct {
	now    time.Duration
	seq    uint64
	queue  oracleHeap
	rng    *rand.Rand
	halted bool
}

// oracleEvent is a scheduled callback. Events fire ordered by (at, seq) so that
// ties are broken by scheduling order, keeping runs deterministic.
type oracleEvent struct {
	at       time.Duration
	seq      uint64
	fn       func()
	canceled *bool
	index    int
}

// newOracleEngine returns an engine whose clock starts at zero, with the given
// random seed.
func newOracleEngine(seed int64) *oracleEngine {
	return &oracleEngine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *oracleEngine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *oracleEngine) Rand() *rand.Rand { return e.rng }

// oracleTimer identifies a scheduled event and allows cancellation.
type oracleTimer struct{ canceled *bool }

// Stop cancels the timer; it is safe to call multiple times or on a timer
// that already fired (the firing check consults the flag).
func (t oracleTimer) Stop() {
	if t.canceled != nil {
		*t.canceled = true
	}
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it would violate causality and indicates a bug in the caller.
func (e *oracleEngine) At(at time.Duration, fn func()) oracleTimer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	c := new(bool)
	ev := &oracleEvent{at: at, seq: e.seq, fn: fn, canceled: c}
	e.seq++
	heap.Push(&e.queue, ev)
	return oracleTimer{canceled: c}
}

// After schedules fn to run d from now.
func (e *oracleEngine) After(d time.Duration, fn func()) oracleTimer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Every schedules fn to run every period, starting one period from now,
// until the returned timer is stopped or the engine halts.
func (e *oracleEngine) Every(period time.Duration, fn func()) oracleTimer {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	c := new(bool)
	var tick func()
	tick = func() {
		if *c || e.halted {
			return
		}
		fn()
		if *c || e.halted {
			return
		}
		ev := &oracleEvent{at: e.now + period, seq: e.seq, fn: tick, canceled: c}
		e.seq++
		heap.Push(&e.queue, ev)
	}
	ev := &oracleEvent{at: e.now + period, seq: e.seq, fn: tick, canceled: c}
	e.seq++
	heap.Push(&e.queue, ev)
	return oracleTimer{canceled: c}
}

// Step runs the single next event. It reports false when the queue is empty
// or the engine was halted.
func (e *oracleEngine) Step() bool {
	for len(e.queue) > 0 && !e.halted {
		ev := heap.Pop(&e.queue).(*oracleEvent)
		if *ev.canceled {
			continue
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the virtual clock would pass until, the queue
// empties, or Halt is called. The clock is left at min(until, last event
// time); events at exactly until do run.
func (e *oracleEngine) Run(until time.Duration) {
	for len(e.queue) > 0 && !e.halted {
		next := e.queue[0]
		if *next.canceled {
			heap.Pop(&e.queue)
			continue
		}
		if next.at > until {
			break
		}
		e.Step()
	}
	if !e.halted && e.now < until {
		e.now = until
	}
}

// RunAll executes events until the queue is empty or Halt is called.
// Useful for draining simulations with a natural end.
func (e *oracleEngine) RunAll() {
	for e.Step() {
	}
}

// Halt stops the engine: Run/RunAll/Step return immediately afterwards.
func (e *oracleEngine) Halt() { e.halted = true }

// Halted reports whether Halt has been called.
func (e *oracleEngine) Halted() bool { return e.halted }

// Pending returns the number of live events in the queue.
func (e *oracleEngine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !*ev.canceled {
			n++
		}
	}
	return n
}

// oracleHeap orders events by (at, seq).
type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *oracleHeap) Push(x any) {
	ev := x.(*oracleEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
