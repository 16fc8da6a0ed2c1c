// Package sim implements the deterministic discrete-event simulation engine
// that every substrate in this repository runs on.
//
// The original Kollaps runs against the Linux kernel in real time; here the
// kernel, the cluster network, the traffic shaping and the applications are
// all simulated, so the engine provides a virtual clock, an event queue with
// a total deterministic order, timers, and a seeded random number source.
// Two runs with the same seed produce bit-identical results — which is the
// reproducibility property the paper argues for.
//
// The package is deterministic: no wall-clock reads and no global
// math/rand outside //kollaps:wallclock sites (kollapslint walltime),
// and no map-iteration order reaching an encoder (maporder).
//
//kollaps:deterministic
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Engine is a discrete-event simulator. It is not safe for concurrent use:
// all simulated work happens on the caller's goroutine inside Run/Step.
//
// Events fire ordered by (at, seq), where seq is taken from a counter at
// the moment the event is scheduled, so ties are broken by scheduling
// order. Each event's callback lives in a slot of a slab; the queue is a
// 4-ary min-heap of (at, seq, slot) keys holding live events only, and
// each slot records its heap position so a Timer can remove its event at
// once. Scheduling, cancelling and firing allocate nothing once the slab
// and heap have grown to the run's peak depth.
type Engine struct {
	now  time.Duration
	seq  uint64
	heap []entry //kollaps:arena
	// slots is the slab of event callbacks, indexed by entry.slot.
	slots []slot //kollaps:arena
	// free lists released slots, reused last-in first-out.
	free   []int32 //kollaps:arena
	rng    *rand.Rand
	halted bool
}

// entry is one queued event's heap key.
type entry struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// before reports whether a fires before b.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// slot holds one scheduled event's callback. It is held from At or Every
// until the event fires (one-shot) or its Timer is stopped; an Every
// ticker keeps its slot across ticks. Releasing a slot bumps gen, which
// turns every Timer still naming it into a no-op.
type slot struct {
	fn     func()
	period time.Duration // > 0 for an Every ticker
	gen    uint64
	pos    int32 // heap index while queued, -1 otherwise
}

// NewEngine returns an engine whose clock starts at zero, with the given
// random seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Timer identifies a scheduled event and allows cancellation. The zero
// Timer is valid and stopping it does nothing.
type Timer struct {
	e    *Engine
	slot int32
	gen  uint64
}

// Stop cancels the timer, removing its event from the queue. It is safe
// to call multiple times, on a timer that already fired, and from inside
// any callback, including the timer's own.
func (t Timer) Stop() {
	if t.e == nil {
		return
	}
	s := &t.e.slots[t.slot]
	if s.gen != t.gen {
		return
	}
	if s.pos >= 0 {
		t.e.remove(int(s.pos))
	}
	t.e.release(t.slot)
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it would violate causality and indicates a bug in the caller.
func (e *Engine) At(at time.Duration, fn func()) Timer {
	if at < e.now {
		panicPast(at, e.now)
	}
	i := e.alloc(fn, 0)
	e.schedule(at, i)
	return Timer{e: e, slot: i, gen: e.slots[i].gen}
}

// panicPast reports an attempt to schedule before the current time.
//
//kollaps:coldpath
func panicPast(at, now time.Duration) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, now))
}

// After schedules fn to run d from now.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Every schedules fn to run every period, starting one period from now,
// until the returned timer is stopped or the engine halts. Each tick is
// scheduled after the previous one's fn returns.
func (e *Engine) Every(period time.Duration, fn func()) Timer {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	i := e.alloc(fn, period)
	e.schedule(e.now+period, i)
	return Timer{e: e, slot: i, gen: e.slots[i].gen}
}

// Step runs the single next event. It reports false when the queue is empty
// or the engine was halted.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 || e.halted {
		return false
	}
	top := e.heap[0]
	e.remove(0)
	if top.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = top.at
	s := &e.slots[top.slot]
	fn := s.fn
	if s.period == 0 {
		e.release(top.slot)
		fn()
		return true
	}
	// An Every ticker holds its slot while fn runs, so a Stop from
	// inside fn still finds it; fn may grow the slab, so s is re-read.
	s.pos = -1
	gen := s.gen
	fn()
	s = &e.slots[top.slot]
	switch {
	case s.gen != gen: // stopped by fn
	case e.halted:
		e.release(top.slot)
	default:
		e.schedule(e.now+s.period, top.slot)
	}
	return true
}

// Run executes events until the virtual clock would pass until, the queue
// empties, or Halt is called. The clock is left at min(until, last event
// time); events at exactly until do run.
func (e *Engine) Run(until time.Duration) {
	for len(e.heap) > 0 && !e.halted && e.heap[0].at <= until {
		e.Step()
	}
	if !e.halted && e.now < until {
		e.now = until
	}
}

// RunAll executes events until the queue is empty or Halt is called.
// Useful for draining simulations with a natural end.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// Halt stops the engine: Run/RunAll/Step return immediately afterwards.
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether Halt has been called.
func (e *Engine) Halted() bool { return e.halted }

// Pending returns the number of live events in the queue. Stopped timers
// leave the queue at once, so this is the queue's length, in O(1).
func (e *Engine) Pending() int { return len(e.heap) }

// alloc takes a slot for fn, reusing a released one when there is one.
func (e *Engine) alloc(fn func(), period time.Duration) int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		s := &e.slots[i]
		s.fn, s.period = fn, period
		return i
	}
	e.slots = append(e.slots, slot{fn: fn, period: period, pos: -1})
	return int32(len(e.slots) - 1)
}

// release returns slot i to the free list. Dropping fn lets the
// callback's captures be collected; bumping gen retires its Timers.
func (e *Engine) release(i int32) {
	s := &e.slots[i]
	s.fn = nil
	s.gen++
	s.pos = -1
	e.free = append(e.free, i)
}

// schedule queues slot i at time at, consuming the next sequence number.
// This is the only place seq advances.
func (e *Engine) schedule(at time.Duration, i int32) {
	e.heap = append(e.heap, entry{at: at, seq: e.seq, slot: i})
	e.seq++
	e.up(len(e.heap) - 1)
}

// remove deletes the heap entry at index i.
func (e *Engine) remove(i int) {
	last := len(e.heap) - 1
	moved := e.heap[last]
	e.heap = e.heap[:last]
	if i == last {
		return
	}
	e.heap[i] = moved
	if i > 0 && moved.before(e.heap[(i-1)/4]) {
		e.up(i)
	} else {
		e.down(i)
	}
}

// up sifts the entry at index i toward the root.
func (e *Engine) up(i int) {
	h := e.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		e.slots[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = x
	e.slots[x.slot].pos = int32(i)
}

// down sifts the entry at index i toward the leaves.
func (e *Engine) down(i int) {
	h := e.heap
	n := len(h)
	x := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(x) {
			break
		}
		h[i] = h[m]
		e.slots[h[i].slot].pos = int32(i)
		i = m
	}
	h[i] = x
	e.slots[x.slot].pos = int32(i)
}
