// Package sim is a deterministic discrete-event simulator for broadcast
// wireless networks. It provides a virtual clock, an event queue with
// stable tie-breaking, and a Network that delivers packets between nodes
// over unit-disk links (plus any out-of-band tunnel links), counting every
// transmission and reception — the paper's route-discovery overhead metric.
//
// Determinism: every run is fully determined by its seed. Events at equal
// times fire in scheduling order (a monotone sequence number breaks ties),
// and all randomness flows from one seeded PCG source.
package sim

import (
	"math"

	"samnet/internal/topology"
)

// Time is virtual simulation time. One unit is one nominal hop transmission
// delay (see Config.HopDelay).
type Time float64

// Forever is a time later than any event a simulation schedules.
const Forever Time = Time(math.MaxFloat64)

// TimerHandler receives timer events scheduled with ScheduleTimer. The id is
// whatever the scheduler passed — protocol timeout wheels (the verify probe
// engine's retry timers) key their pending state on it.
type TimerHandler interface {
	Timer(id uint64)
}

// key is one heap entry: the event's (at, seq) order plus the slab slot of
// its payload. Keys hold no pointers, so sifting one is a plain 24-byte move
// with no GC write barrier; the payload is written once when scheduled and
// read once when fired.
type key struct {
	at   Time
	seq  uint64
	slot int32
}

func (k key) less(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// payload is what an event does. The hot paths — packet delivery and
// protocol timers — are concrete fields dispatched by the engine itself
// (fn == nil), so delivering a packet or firing a timeout allocates nothing.
// Schedule'd callbacks ride the same queue with fn set.
type payload struct {
	fn   func() // slow path: scheduled callback; nil for deliveries/timers
	pkt  Packet
	th   TimerHandler // timer events: receiver of tid; nil for deliveries
	tid  uint64
	from topology.NodeID
	to   topology.NodeID
}

// Engine is the event loop. The zero value is ready to use.
//
// The queue is a hand-rolled 4-ary min-heap rather than container/heap: no
// interface boxing per push/pop, and the shallower tree roughly halves the
// sift depth for the flood-sized queues discovery builds. The heap holds
// pointer-free keys; payloads live in a slab whose freed slots are reused.
// Heap order is (at, seq); since every event's (at, seq) key is unique, pop
// order — and therefore every simulation output — is independent of arity
// and of slot assignment.
type Engine struct {
	pq        []key
	slab      []payload
	free      []int32 // slab slots not holding a pending event
	now       Time
	seq       uint64
	processed uint64

	// net is set when the engine is embedded in a Network; fn == nil events
	// are deliveries dispatched to it.
	net *Network
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled-but-unexecuted events.
func (e *Engine) Pending() int { return len(e.pq) }

// Schedule runs fn after delay d. A negative delay panics: the simulator
// does not travel backwards.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.push(d, payload{fn: fn})
}

// scheduleDelivery enqueues a packet reception without boxing or closures.
func (e *Engine) scheduleDelivery(d Time, from, to topology.NodeID, pkt Packet) {
	e.push(d, payload{pkt: pkt, from: from, to: to})
}

// ScheduleTimer fires h.Timer(id) after delay d. Like deliveries (and unlike
// Schedule's closures) the timer rides the heap as a concrete event, so
// arming a timeout allocates nothing. Ties against deliveries at the same
// instant resolve by scheduling order, as for every other event.
func (e *Engine) ScheduleTimer(d Time, h TimerHandler, id uint64) {
	if d < 0 {
		panic("sim: negative delay")
	}
	if h == nil {
		panic("sim: nil timer handler")
	}
	e.push(d, payload{th: h, tid: id})
}

// reset rewinds the engine to its zero state, keeping the capacity of the
// heap, the slab and the free list.
func (e *Engine) reset() {
	// pop zeroes a slot as it frees it, so only unfired events still hold
	// fn/pkt/th references.
	for _, k := range e.pq {
		e.slab[k.slot] = payload{}
	}
	e.pq, e.slab, e.free = e.pq[:0], e.slab[:0], e.free[:0]
	e.now, e.seq, e.processed = 0, 0, 0
}

// push stores p in a free slab slot and sifts its key up from the end of
// the heap, moving the hole rather than swapping.
func (e *Engine) push(d Time, p payload) {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[slot] = p
	} else {
		slot = int32(len(e.slab))
		e.slab = append(e.slab, p)
	}
	e.seq++
	k := key{at: e.now + d, seq: e.seq, slot: slot}
	e.pq = append(e.pq, k)
	i := len(e.pq) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !k.less(e.pq[parent]) {
			break
		}
		e.pq[i] = e.pq[parent]
		i = parent
	}
	e.pq[i] = k
}

// pop removes the earliest event, frees its slab slot and returns its time
// and payload. The last key sifts down from the root through the hole.
func (e *Engine) pop() (Time, payload) {
	top := e.pq[0]
	n := len(e.pq) - 1
	last := e.pq[n]
	e.pq = e.pq[:n]
	if n > 0 {
		i := 0
		for {
			first := i<<2 + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if e.pq[c].less(e.pq[min]) {
					min = c
				}
			}
			if !e.pq[min].less(last) {
				break
			}
			e.pq[i] = e.pq[min]
			i = min
		}
		e.pq[i] = last
	}
	p := e.slab[top.slot]
	e.slab[top.slot] = payload{} // release fn/pkt/th references
	e.free = append(e.free, top.slot)
	return top.at, p
}

// fire executes one popped event at its timestamp.
func (e *Engine) fire(at Time, p *payload) {
	e.now = at
	e.processed++
	if p.fn != nil {
		p.fn()
		return
	}
	if p.th != nil {
		p.th.Timer(p.tid)
		return
	}
	e.net.dispatch(p.from, p.to, p.pkt)
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil executes events with time <= deadline, leaves later events
// queued, advances the clock to min(deadline, last event time), and returns
// the current time.
func (e *Engine) RunUntil(deadline Time) Time {
	for len(e.pq) > 0 && e.pq[0].at <= deadline {
		at, p := e.pop()
		e.fire(at, &p)
	}
	if deadline != Forever && deadline > e.now {
		e.now = deadline
	}
	return e.now
}

// Step executes exactly one event if any is pending and reports whether it
// did.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	at, p := e.pop()
	e.fire(at, &p)
	return true
}
