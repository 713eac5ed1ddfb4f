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
//
// A delivery with tid == 0 goes to one receiver, to. A delivery with
// tid > 0 is a broadcast's fan-out entry: tid receivers wait in the slot's
// row of Engine.fan, and to is the cursor of the next one.
type payload struct {
	fn   func() // slow path: scheduled callback; nil for deliveries/timers
	pkt  Packet
	th   TimerHandler // timer events: receiver of tid; nil for deliveries
	tid  uint64       // timer id; a fan-out entry's receiver count
	from topology.NodeID
	to   topology.NodeID // receiver; a fan-out entry's cursor
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
//
// A broadcast is one key for all of its same-delay receivers (see
// Network.Broadcast). Its receivers share one at and hold consecutive seqs,
// so once the key reaches the root no other event can fire between them:
// the key stays at the root while a cursor walks the receivers and is popped
// after the last one.
type Engine struct {
	pq   []key
	slab []payload
	// fan holds each slab slot's fan-out receivers. A row keeps its
	// capacity when its slot is freed, so a warm broadcast allocates
	// nothing; len(fan) >= len(slab) always.
	fan [][]topology.NodeID
	// spare is the unused tail of the block the last grown fan-out row was
	// carved from, so warming a queue up costs one allocation per block
	// rather than one per slot.
	spare []topology.NodeID
	free  []int32 // slab slots not holding a pending event
	now   Time
	// seq is spent once per scheduled event, each receiver of a broadcast
	// included, so it also counts the events scheduled since the last reset.
	seq uint64

	// net is set when the engine is embedded in a Network; fn == nil events
	// are deliveries dispatched to it.
	net *Network
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

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
// heap, the slab, the fan-out rows and the free list.
func (e *Engine) reset() {
	// pop zeroes a slot as it frees it, so only unfired events — fan-out
	// entries mid-walk included — still hold fn/pkt/th references.
	for _, k := range e.pq {
		e.slab[k.slot] = payload{}
	}
	e.pq, e.slab, e.free = e.pq[:0], e.slab[:0], e.free[:0]
	e.now, e.seq = 0, 0
}

// alloc stores p in a free slab slot and returns the slot.
func (e *Engine) alloc(p payload) int32 {
	if n := len(e.free); n > 0 {
		slot := e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[slot] = p
		return slot
	}
	e.slab = append(e.slab, p)
	if len(e.fan) < len(e.slab) {
		e.fan = append(e.fan, nil)
	}
	return int32(len(e.slab) - 1)
}

// release frees a slot that holds no pending event.
func (e *Engine) release(slot int32) {
	e.slab[slot] = payload{} // release fn/pkt/th references
	e.free = append(e.free, slot)
}

// push schedules p after delay d under the next seq.
func (e *Engine) push(d Time, p payload) {
	e.seq++
	e.insert(key{at: e.now + d, seq: e.seq, slot: e.alloc(p)})
}

// insert sifts k up from the end of the heap, moving the hole rather than
// swapping.
func (e *Engine) insert(k key) {
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

// fanout opens a fan-out entry for a broadcast of pkt from "from": it
// claims a slab slot and returns it with its receiver row, emptied and
// with room for n receivers.
func (e *Engine) fanout(from topology.NodeID, pkt Packet, n int) (int32, []topology.NodeID) {
	slot := e.alloc(payload{pkt: pkt, from: from})
	row := e.fan[slot][:0]
	if cap(row) < n {
		if len(e.spare) < n {
			e.spare = make([]topology.NodeID, max(n, fanBlock))
		}
		row, e.spare = e.spare[:0:n], e.spare[n:]
	}
	return slot, row
}

// fanBlock is the size of the blocks fan-out rows are carved from: room for
// the rows of a few dozen broadcasts at the paper's node degrees.
const fanBlock = 512

// scheduleFanout enqueues an open fan-out entry after delay d under the
// seq of its first receiver, or frees its slot if no receiver is left.
func (e *Engine) scheduleFanout(d Time, slot int32, rcv []topology.NodeID, first uint64) {
	if len(rcv) == 0 {
		e.release(slot)
		return
	}
	e.fan[slot] = rcv
	e.slab[slot].tid = uint64(len(rcv))
	e.insert(key{at: e.now + d, seq: first, slot: slot})
}

// pop removes the root key and frees its slab slot. The last key sifts
// down from the root through the hole.
func (e *Engine) pop() {
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
	e.release(top.slot)
}

// next executes the earliest event: the root key's event, or the next
// receiver of the fan-out entry at the root. What the event needs is read
// out before it runs, since the handler may schedule into the freed slot.
func (e *Engine) next() {
	top := e.pq[0]
	e.now = top.at
	p := &e.slab[top.slot]
	switch {
	case p.fn != nil:
		fn := p.fn
		e.pop()
		fn()
	case p.th != nil:
		th, id := p.th, p.tid
		e.pop()
		th.Timer(id)
	case p.tid == 0:
		from, to, pkt := p.from, p.to, p.pkt
		e.pop()
		e.net.dispatch(from, to, pkt)
	default:
		from, pkt := p.from, p.pkt
		to := e.fan[top.slot][p.to]
		if p.to++; uint64(p.to) == p.tid {
			e.pop()
		}
		e.net.dispatch(from, to, pkt)
	}
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil executes events with time <= deadline, leaves later events
// queued, advances the clock to min(deadline, last event time), and returns
// the current time.
func (e *Engine) RunUntil(deadline Time) Time {
	for len(e.pq) > 0 && e.pq[0].at <= deadline {
		e.next()
	}
	if deadline != Forever && deadline > e.now {
		e.now = deadline
	}
	return e.now
}
