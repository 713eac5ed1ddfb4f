package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"samnet/internal/geom"
	"samnet/internal/topology"
)

// refEvent and refEngine are the engine's previous queue, kept as the
// reference the slab-backed heap is diffed against: a 4-ary heap of whole
// 80-byte events, swapped level by level.
type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	pkt  Packet
	th   TimerHandler
	tid  uint64
	from topology.NodeID
	to   topology.NodeID
}

type refEngine struct {
	pq        []refEvent
	now       Time
	seq       uint64
	processed uint64
	recv      func(from, to topology.NodeID, pkt Packet)
}

func (e *refEngine) Now() Time         { return e.now }
func (e *refEngine) Processed() uint64 { return e.processed }
func (e *refEngine) Pending() int      { return len(e.pq) }

func (e *refEngine) Schedule(d Time, fn func()) {
	e.seq++
	e.push(refEvent{at: e.now + d, seq: e.seq, fn: fn})
}

func (e *refEngine) scheduleDelivery(d Time, from, to topology.NodeID, pkt Packet) {
	e.seq++
	e.push(refEvent{at: e.now + d, seq: e.seq, pkt: pkt, from: from, to: to})
}

func (e *refEngine) ScheduleTimer(d Time, h TimerHandler, id uint64) {
	e.seq++
	e.push(refEvent{at: e.now + d, seq: e.seq, th: h, tid: id})
}

func (e *refEngine) reset() {
	for i := range e.pq {
		e.pq[i] = refEvent{}
	}
	e.pq = e.pq[:0]
	e.now, e.seq, e.processed = 0, 0, 0
}

func (ev *refEvent) less(other *refEvent) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

func (e *refEngine) push(ev refEvent) {
	e.pq = append(e.pq, ev)
	i := len(e.pq) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.pq[i].less(&e.pq[parent]) {
			break
		}
		e.pq[i], e.pq[parent] = e.pq[parent], e.pq[i]
		i = parent
	}
}

func (e *refEngine) pop() refEvent {
	top := e.pq[0]
	n := len(e.pq) - 1
	e.pq[0] = e.pq[n]
	e.pq[n] = refEvent{}
	e.pq = e.pq[:n]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.pq[c].less(&e.pq[min]) {
				min = c
			}
		}
		if !e.pq[min].less(&e.pq[i]) {
			break
		}
		e.pq[i], e.pq[min] = e.pq[min], e.pq[i]
		i = min
	}
	return top
}

func (e *refEngine) fire(ev *refEvent) {
	e.now = ev.at
	e.processed++
	switch {
	case ev.fn != nil:
		ev.fn()
	case ev.th != nil:
		ev.th.Timer(ev.tid)
	default:
		e.recv(ev.from, ev.to, ev.pkt)
	}
}

func (e *refEngine) RunUntil(deadline Time) Time {
	for len(e.pq) > 0 && e.pq[0].at <= deadline {
		ev := e.pop()
		e.fire(&ev)
	}
	if deadline != Forever && deadline > e.now {
		e.now = deadline
	}
	return e.now
}

func (e *refEngine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pop()
	e.fire(&ev)
	return true
}

// refNetwork is Network.Broadcast as it was before fan-out entries, kept
// as the reference the one-key broadcast is diffed against: one delivery
// event per receiver on the reference heap, with loss and link delays
// applied per neighbour at transmit time.
type refNetwork struct {
	*refEngine
	topo      *topology.Topology
	cfg       Config
	rng       *rand.Rand
	linkDelay map[topology.Link]Time
	lost      int64
}

func (n *refNetwork) Broadcast(from topology.NodeID, pkt Packet) {
	delay := n.cfg.HopDelay + Time(n.rng.Float64()*n.cfg.Jitter)
	for _, to := range n.topo.Neighbors(from) {
		n.deliver(from, to, pkt, delay)
	}
}

func (n *refNetwork) deliver(from, to topology.NodeID, pkt Packet, delay Time) {
	if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
		n.lost++
		return
	}
	if n.linkDelay != nil {
		delay += n.linkDelay[topology.MkLink(from, to)]
	}
	n.scheduleDelivery(delay, from, to, pkt)
}

// queue is the surface a schedule replay needs from either engine.
type queue interface {
	Now() Time
	Processed() uint64
	Pending() int
	Schedule(d Time, fn func())
	scheduleDelivery(d Time, from, to topology.NodeID, pkt Packet)
	ScheduleTimer(d Time, h TimerHandler, id uint64)
	Broadcast(from topology.NodeID, pkt Packet)
	RunUntil(deadline Time) Time
	Step() bool
	reset()
}

// scheduleReplay replays one seeded random schedule against a queue and
// logs every fired event with the clock it fired at. Fired events schedule
// children from an RNG seeded by their own id, so two engines that pop in
// the same order make the same follow-up calls.
type scheduleReplay struct {
	q    queue
	log  []string
	next uint64
}

// Timer implements TimerHandler.
func (d *scheduleReplay) Timer(id uint64) { d.fired("timer", id) }

func (d *scheduleReplay) recv(from, to topology.NodeID, pkt Packet) {
	d.fired(fmt.Sprintf("deliver %d>%d", from, to), pkt.(uint64))
}

func (d *scheduleReplay) fired(kind string, id uint64) {
	d.log = append(d.log, fmt.Sprintf("%s %d @%v", kind, id, d.q.Now()))
	rng := rand.New(rand.NewPCG(id, 1))
	for c := rng.IntN(5) / 2; c > 0; c-- { // 0.8 children on average: schedules die out
		d.scheduleOne(rng, false)
	}
}

// delay draws from a small set rich in zeros and repeats, so equal
// timestamps — the seq tie-break — come up constantly.
func delay(rng *rand.Rand) Time {
	return []Time{0, 0, 0.5, 1, 1, 2, 0.25, Time(rng.Float64() * 3)}[rng.IntN(8)]
}

// scheduleOne schedules one random event. One in twelve is a broadcast:
// from a line node of fanTopo as a fired event's child, so floods die out,
// and also from the degree-70 hub at top level.
func (d *scheduleReplay) scheduleOne(rng *rand.Rand, top bool) {
	d.next++
	id := d.next
	switch k := rng.IntN(12); {
	case k < 1:
		from := topology.NodeID(1 + rng.IntN(fanLine))
		if top && rng.IntN(2) == 0 {
			from = 0
		}
		d.q.Broadcast(from, id)
	case k < 5:
		d.q.Schedule(delay(rng), func() { d.fired("fn", id) })
	case k < 8:
		d.q.ScheduleTimer(delay(rng), d, id)
	default:
		from, to := topology.NodeID(rng.IntN(4)), topology.NodeID(rng.IntN(4))
		d.q.scheduleDelivery(delay(rng), from, to, id)
	}
}

// op applies one top-level step of the schedule, logs the engine's
// observable state after it, and returns what kind of step it was.
func (d *scheduleReplay) op(rng *rand.Rand) string {
	var kind string
	switch k := rng.IntN(20); {
	case k < 11:
		kind = "schedule"
		for n := 1 + rng.IntN(4); n > 0; n-- {
			d.scheduleOne(rng, true)
		}
	case k < 15:
		kind = "step"
		d.log = append(d.log, fmt.Sprintf("step %v", d.q.Step()))
	case k < 19:
		kind = "run"
		d.q.RunUntil(d.q.Now() + []Time{0, 0.5, 1, 2.5}[rng.IntN(4)])
	default:
		kind = "reset"
		d.q.reset()
		d.log = append(d.log, "reset")
	}
	d.log = append(d.log, fmt.Sprintf("now=%v processed=%d pending=%d",
		d.q.Now(), d.q.Processed(), d.q.Pending()))
	return kind
}

// fanLine is the number of line nodes in fanTopo.
const fanLine = 70

// fanTopo is a hub (node 0) tunnelled to every node of a radio line
// (nodes 1..fanLine), so the hub's degree exceeds 64 while a line node's
// broadcast reaches the hub and one or two line neighbours. Armed with link delays on one
// hub tunnel, one radio link and another tunnel, some receivers of a
// broadcast need keys of their own.
func fanTopo() *topology.Topology {
	t := topology.New("fan", 1.001)
	t.AddNode(geom.Pt(0, -10))
	for i := 1; i <= fanLine; i++ {
		t.AddNode(geom.Pt(float64(i), 0))
		t.AddExtraLink(0, topology.NodeID(i))
	}
	return t
}

var fanLinkDelays = []struct {
	a, b  topology.NodeID
	extra Time
}{{0, 7, 0.5}, {20, 21, 1.5}, {0, 33, 2}}

// midFan reports whether the engine's earliest event is a fan-out entry
// that has already delivered some of its receivers.
func midFan(e *Engine) bool {
	if len(e.pq) == 0 {
		return false
	}
	p := e.slab[e.pq[0].slot]
	return p.fn == nil && p.th == nil && p.tid > 0 && p.to > 0
}

// TestEngineMatchesReferenceHeap drives the slab-backed engine and the
// reference heap with identical random schedules — deliveries, timers,
// callbacks and broadcasts, zero delays and equal timestamps, RunUntil/Step
// interleavings and mid-run resets — and requires identical pop sequences
// and identical Now/Processed/Pending after every step. Broadcasts go
// through Network.Broadcast on one side and the per-receiver reference on
// the other, over lossy and loss-free networks, link-delayed neighbours,
// zero hop delays (handlers re-broadcast at the same instant) and a hub of
// degree 70; Steps, RunUntils and resets land in the middle of fan-outs.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	cfgs := []Config{
		{HopDelay: ExplicitZero, Jitter: ExplicitZero},
		{HopDelay: ExplicitZero, Jitter: ExplicitZero, LossRate: 0.3},
		{HopDelay: 0.5, Jitter: 0.25},
		{HopDelay: ExplicitZero, Jitter: 1, LossRate: 0.2},
	}
	topo := fanTopo()
	topo.Freeze()
	var stepMid, runMid, resetMid int
	for seed := uint64(1); seed <= 40; seed++ {
		cfg := cfgs[seed%uint64(len(cfgs))]
		cfg.Seed = seed
		// The new engine dispatches deliveries through a Network whose
		// handlers log them.
		net := NewNetwork(topo, cfg)
		got := &scheduleReplay{q: net}
		net.SetAllHandlers(HandlerFunc(func(n *Network, self, from topology.NodeID, pkt Packet) {
			got.recv(from, self, pkt)
		}))
		cfg.defaults()
		ref := &refNetwork{
			refEngine: &refEngine{},
			topo:      topo,
			cfg:       cfg,
			rng:       rand.New(rand.NewPCG(seed, simStream)),
			linkDelay: make(map[topology.Link]Time),
		}
		for _, l := range fanLinkDelays {
			net.SetLinkDelay(l.a, l.b, l.extra)
			ref.linkDelay[topology.MkLink(l.a, l.b)] = l.extra
		}
		want := &scheduleReplay{q: ref}
		ref.recv = want.recv

		gotRNG := rand.New(rand.NewPCG(seed, 2))
		wantRNG := rand.New(rand.NewPCG(seed, 2))
		for i := 0; i < 300; i++ {
			before := midFan(&net.Engine)
			kind := got.op(gotRNG)
			want.op(wantRNG)
			switch {
			case kind == "step" && midFan(&net.Engine):
				stepMid++
			case kind == "run" && before:
				runMid++
			case kind == "reset" && before:
				resetMid++
			}
		}
		got.q.RunUntil(Forever)
		want.q.RunUntil(Forever)
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: log lengths differ: %d vs %d", seed, len(got.log), len(want.log))
		}
		for i := range got.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: diverged at entry %d: %q vs reference %q", seed, i, got.log[i], want.log[i])
			}
		}
		if got.q.Processed() != want.q.Processed() || got.q.Now() != want.q.Now() || got.q.Pending() != 0 {
			t.Fatalf("seed %d: final state differs", seed)
		}
		if net.Lost() != ref.lost {
			t.Fatalf("seed %d: lost %d receptions, reference %d", seed, net.Lost(), ref.lost)
		}
	}
	if stepMid == 0 || runMid == 0 || resetMid == 0 {
		t.Errorf("schedules never reached a fan-out mid-walk: step %d, run %d, reset %d", stepMid, runMid, resetMid)
	}
	t.Logf("mid-fan-out steps %d, runs %d, resets %d", stepMid, runMid, resetMid)
}

// TestEngineSlabRecycling checks that fired and reset events give their
// slab slots back: a steady schedule never grows the slab past the peak
// number of pending events, and a reset releases every payload reference.
func TestEngineSlabRecycling(t *testing.T) {
	var e Engine
	l := &timerLog{e: &e}
	for round := 0; round < 50; round++ {
		for i := 0; i < 8; i++ {
			e.ScheduleTimer(Time(i%3), l, uint64(i))
		}
		e.Run()
	}
	if len(e.slab) != 8 || len(e.free) != 8 {
		t.Fatalf("slab=%d free=%d after steady rounds, want 8/8", len(e.slab), len(e.free))
	}
	e.Schedule(1, func() {})
	e.ScheduleTimer(2, l, 1)
	e.reset()
	if e.Pending() != 0 || len(e.slab) != 0 || len(e.free) != 0 {
		t.Fatalf("reset left pending=%d slab=%d free=%d", e.Pending(), len(e.slab), len(e.free))
	}
	for _, p := range e.slab[:cap(e.slab)] {
		if p.fn != nil || p.th != nil || p.pkt != nil {
			t.Fatal("reset kept a payload reference alive")
		}
	}

	// A reset in the middle of a fan-out releases its packet as well.
	net := NewNetwork(lineTopo(3), Config{Seed: 1})
	net.Broadcast(1, "x")
	net.Step()
	if net.Pending() != 1 {
		t.Fatalf("pending %d after one of two deliveries, want 1", net.Pending())
	}
	net.Reset(1)
	for _, p := range net.slab[:cap(net.slab)] {
		if p.pkt != nil {
			t.Fatal("reset kept a fan-out packet alive")
		}
	}
}
