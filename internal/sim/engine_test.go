package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// Processed returns the number of events executed since the last reset.
// Each receiver of a broadcast is one event. Every scheduled event spends
// one seq, so the executed ones are the seqs spent less those still pending.
func (e *Engine) Processed() uint64 { return e.seq - uint64(e.Pending()) }

// Pending returns the number of scheduled-but-unexecuted events, read off
// the heap. Each receiver still waiting for a broadcast counts as one,
// although all of a broadcast's same-delay receivers share one heap key.
func (e *Engine) Pending() int {
	n := 0
	for _, k := range e.pq {
		if p := &e.slab[k.slot]; p.fn == nil && p.th == nil && p.tid > 0 {
			n += int(p.tid) - int(p.to) // a fan-out entry's undelivered receivers
		} else {
			n++
		}
	}
	return n
}

// Step executes exactly one event if any is pending and reports whether it
// did. Of a broadcast, it delivers one receiver.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	e.next()
	return true
}

func TestScheduleRunOrder(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestTieBreakIsSchedulingOrder(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Errorf("times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	fired := 0
	e.Schedule(1, func() { fired++ })
	e.Schedule(5, func() { fired++ })
	e.RunUntil(3)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3 (deadline)", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.Run()
	if fired != 2 || e.Now() != 5 {
		t.Errorf("after Run: fired=%d now=%v", fired, e.Now())
	}
}

func TestStep(t *testing.T) {
	var e Engine
	fired := 0
	e.Schedule(1, func() { fired++ })
	e.Schedule(2, func() { fired++ })
	if !e.Step() || fired != 1 {
		t.Fatal("first Step should fire exactly one event")
	}
	if !e.Step() || fired != 2 {
		t.Fatal("second Step should fire the second event")
	}
	if e.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestProcessedCount(t *testing.T) {
	var e Engine
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Errorf("Processed = %d", e.Processed())
	}
}

func TestEventOrderProperty(t *testing.T) {
	// Whatever the (non-negative) delays, events fire in nondecreasing time
	// order and the clock never goes backwards.
	f := func(raw []uint16) bool {
		var e Engine
		var fireTimes []Time
		for _, r := range raw {
			d := Time(r % 1000)
			e.Schedule(d, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run()
		return sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
