package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// engineAPI is the scheduling surface shared by Engine and the frozen
// oracleEngine, generic over each engine's timer handle.
type engineAPI[T interface{ Stop() }] interface {
	At(time.Duration, func()) T
	After(time.Duration, func()) T
	Every(time.Duration, func()) T
	Step() bool
	Run(time.Duration)
	Halt()
	Now() time.Duration
	Pending() int
}

// firing is one callback invocation as the oracle harness records it.
type firing struct {
	at time.Duration
	id int
}

// harness drives one engine through a decoded operation script. Event
// ids are assigned in scheduling order, so two engines that behave alike
// assign the same ids. Callback behaviour is a pure function of (salt,
// id, tick), so it cannot depend on which engine runs it.
type harness[T interface{ Stop() }] struct {
	eng    engineAPI[T]
	salt   uint64
	timers []T
	fired  []firing
}

// mix is splitmix64's finaliser.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// maxDepth bounds how many generations of callbacks may schedule children.
const maxDepth = 3

func (h *harness[T]) callback(id, depth int) func() {
	tick := 0
	return func() {
		tick++
		h.fired = append(h.fired, firing{at: h.eng.Now(), id: id})
		a := mix(h.salt ^ uint64(id)<<20 ^ uint64(tick))
		switch a % 10 {
		case 0: // stop itself: a no-op for a one-shot, ends an Every
			h.timers[id].Stop()
		case 1: // stop the previous event, often a same-instant peer
			if id > 0 {
				h.timers[id-1].Stop()
			}
		case 2: // stop any handle: live, fired, or stale
			h.timers[int(a>>8)%len(h.timers)].Stop()
		case 3: // schedule a same-instant child
			if depth < maxDepth {
				h.add(func(fn func()) T { return h.eng.After(0, fn) }, depth+1)
			}
		case 4: // schedule a later child
			if depth < maxDepth {
				d := time.Duration(a>>8%8) * time.Millisecond / 2
				h.add(func(fn func()) T { return h.eng.At(h.eng.Now()+d, fn) }, depth+1)
			}
		case 5: // schedule a same-instant child and stop it at once
			if depth < maxDepth {
				h.add(func(fn func()) T { return h.eng.After(0, fn) }, depth+1)
				h.timers[len(h.timers)-1].Stop()
			}
		case 6:
			if a>>8%32 == 0 {
				h.eng.Halt()
			}
		case 7: // schedule a child, then stop itself: a running Every
			// must see its own Stop even when the child grew the slab
			if depth < maxDepth {
				h.add(func(fn func()) T { return h.eng.After(0, fn) }, depth+1)
			}
			h.timers[id].Stop()
		}
	}
}

// add schedules a new event through sched and records its handle.
func (h *harness[T]) add(sched func(func()) T, depth int) {
	id := len(h.timers)
	var zero T
	h.timers = append(h.timers, zero)
	h.timers[id] = sched(h.callback(id, depth))
}

// apply runs one scripted operation and returns Step's result (false for
// every other operation).
func (h *harness[T]) apply(op, arg byte) bool {
	now := h.eng.Now()
	half := time.Millisecond / 2
	switch op % 9 {
	case 0:
		h.add(func(fn func()) T { return h.eng.At(now+time.Duration(arg%8)*half, fn) }, 0)
	case 1: // After with a possibly negative delay, which clamps to now
		h.add(func(fn func()) T { return h.eng.After(time.Duration(int(arg%8)-2)*half, fn) }, 0)
	case 2:
		h.add(func(fn func()) T { return h.eng.Every(time.Duration(arg%4+1)*time.Millisecond, fn) }, 0)
	case 3: // stop any handle: live, fired, or stale (slot since reused)
		if len(h.timers) > 0 {
			h.timers[int(arg)%len(h.timers)].Stop()
		}
	case 4:
		return h.eng.Step()
	case 5:
		h.eng.Run(now + time.Duration(arg%16)*half)
	case 6:
		if arg%16 == 0 {
			h.eng.Halt()
		}
	case 7: // the TCP pattern: stop the newest timer, then re-arm it
		if len(h.timers) > 0 {
			h.timers[len(h.timers)-1].Stop()
		}
		h.add(func(fn func()) T { return h.eng.After(time.Duration(arg%8)*half, fn) }, 0)
	case 8: // Run to a bound at or before now runs only same-instant events
		h.eng.Run(now - time.Duration(arg%2)*half)
	}
	return false
}

// maxOps bounds one fuzz input's script so every input runs quickly.
const maxOps = 400

// FuzzEngineOracle requires the slab engine to fire the same (time, id)
// sequence as the frozen container/heap engine, and to agree on Now and
// Pending after every operation, for arbitrary interleavings of At,
// After, Every, Stop (of live, fired and stale handles, from outside and
// from inside callbacks), Step, Halt and Run.
func FuzzEngineOracle(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 0, 4, 0, 4, 0, 4, 0})
	f.Add([]byte{2, 0, 2, 1, 5, 15, 3, 0, 5, 15, 7, 2, 7, 2, 5, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 1, 4, 0, 0, 0, 3, 0, 8, 0, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		var salt uint64
		for i := 0; i < len(data) && i < 8; i++ {
			salt = salt<<8 | uint64(data[i])
		}
		slab := &harness[Timer]{eng: NewEngine(1), salt: salt}
		ref := &harness[oracleTimer]{eng: newOracleEngine(1), salt: salt}
		for i := 0; i+1 < len(data) && i < 2*maxOps; i += 2 {
			op, arg := data[i], data[i+1]
			got, want := slab.apply(op, arg), ref.apply(op, arg)
			if err := compare(slab, ref, got, want); err != nil {
				t.Fatalf("op %d (%d,%d): %v", i/2, op%9, arg, err)
			}
		}
	})
}

// compare reports the first difference between the slab engine's run and
// the oracle's.
func compare(slab *harness[Timer], ref *harness[oracleTimer], got, want bool) error {
	if got != want {
		return fmt.Errorf("Step = %v, oracle %v", got, want)
	}
	if slab.eng.Now() != ref.eng.Now() {
		return fmt.Errorf("Now = %v, oracle %v", slab.eng.Now(), ref.eng.Now())
	}
	if slab.eng.Pending() != ref.eng.Pending() {
		return fmt.Errorf("Pending = %d, oracle %d", slab.eng.Pending(), ref.eng.Pending())
	}
	if len(slab.fired) != len(ref.fired) {
		return fmt.Errorf("fired %d events, oracle %d", len(slab.fired), len(ref.fired))
	}
	for i := range slab.fired {
		if slab.fired[i] != ref.fired[i] {
			return fmt.Errorf("firing %d = %+v, oracle %+v", i, slab.fired[i], ref.fired[i])
		}
	}
	return nil
}

// TestEngineSteadyStateAllocs pins the engine's allocation-free contract:
// once the slab and heap have grown to the working depth, scheduling and
// firing an event, and cancelling and re-arming a timer, allocate nothing.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	noop := func() {}
	for i := 0; i < 336; i++ {
		e.After(time.Duration(i)*time.Microsecond, noop)
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.After(336*time.Microsecond, noop)
		e.Step()
	}); n != 0 {
		t.Errorf("At+Step: %v allocs, want 0", n)
	}
	tm := e.After(time.Second, noop)
	if n := testing.AllocsPerRun(1000, func() {
		tm.Stop()
		tm = e.After(time.Second, noop)
	}); n != 0 {
		t.Errorf("Stop+At: %v allocs, want 0", n)
	}
	if e.Pending() != 337 {
		t.Errorf("Pending = %d, want 337 (stopped timers must leave the queue)", e.Pending())
	}
}

// Hold-model parameters, shaped on the Fig 8 scenario: 336 live events,
// a mean residence of 5.6 ms (about 60k events per virtual second), and
// per fired event one retransmission timer stopped and re-armed 30 ms out,
// which leaves the lazily-cancelling oracle with about six dead heap
// entries per live one, as measured on Fig 8.
const (
	holdDepth     = 336
	holdResidence = 5600 * time.Microsecond
	holdRTO       = 30 * time.Millisecond
	holdConns     = 16
)

// BenchmarkEngineHold times the hold model on the slab engine and on the
// frozen oracle: each op fires the earliest event, schedules a successor,
// and stops and re-arms one of holdConns retransmission timers.
func BenchmarkEngineHold(b *testing.B) {
	b.Run("oracle", func(b *testing.B) { benchHold[oracleTimer](b, newOracleEngine(1)) })
	b.Run("engine", func(b *testing.B) { benchHold[Timer](b, NewEngine(1)) })
}

func benchHold[T interface{ Stop() }](b *testing.B, eng engineAPI[T]) {
	rng := rand.New(rand.NewSource(1))
	span := int64(2 * holdResidence)
	noop := func() {}
	for i := 0; i < holdDepth; i++ {
		eng.At(time.Duration(rng.Int63n(span)), noop)
	}
	var rto [holdConns]T
	for i := range rto {
		rto[i] = eng.After(holdRTO, noop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
		eng.After(time.Duration(rng.Int63n(span)), noop)
		c := i % holdConns
		rto[c].Stop()
		rto[c] = eng.After(holdRTO, noop)
	}
}
