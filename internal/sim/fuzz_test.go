package sim

import (
	"math"
	"sort"
	"testing"
)

// fuzzEvent is one scheduled handler of a fuzz program. When it fires it
// schedules each child at Now()+child.delta.
type fuzzEvent struct {
	delta    Time
	children []int
}

const (
	opSchedule = iota
	opRun
	opRunBefore
	opLane
	numOps
	// opPoolSchedule is opSchedule through a Pool, the children of its
	// event too; the schedule byte's next bit picks it, so the input
	// encodings of the other operations stay as they were.
	opPoolSchedule = numOps
)

// maxFuzzLanes caps the lanes one fuzz program registers.
const maxFuzzLanes = 2

type fuzzOp struct {
	kind  int
	event int  // opSchedule, opPoolSchedule: root event index
	off   Time // opRun/opRunBefore: horizon relative to Now, may be negative; opLane: the latency
}

// fuzzProgram is decoded from the fuzz input. Times are multiples of a
// quarter second, so sums stay exact, equal timestamps are common, and
// event deltas often equal a registered lane latency: lane and heap events
// mix at equal times.
type fuzzProgram struct {
	events []fuzzEvent
	ops    []fuzzOp
}

func decodeFuzzProgram(data []byte) *fuzzProgram {
	p := &fuzzProgram{}
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	var newEvent func(depth int) int
	newEvent = func(depth int) int {
		c := next()
		id := len(p.events)
		p.events = append(p.events, fuzzEvent{delta: Time(c%5) / 4})
		if depth < 3 {
			for k := 0; k < int(c/65) && len(p.events) < 160; k++ {
				child := newEvent(depth + 1)
				p.events[id].children = append(p.events[id].children, child)
			}
		}
		return id
	}
	lanes := 0
	for pos < len(data) && len(p.ops) < 64 {
		b := next()
		op := fuzzOp{kind: int(b % numOps)}
		switch op.kind {
		case opSchedule:
			if b/numOps%2 == 1 {
				op.kind = opPoolSchedule
			}
			op.event = newEvent(0)
		case opRun, opRunBefore:
			op.off = Time(int(b/numOps%12)-3) / 4
		case opLane:
			if lanes == maxFuzzLanes {
				continue
			}
			lanes++
			op.off = Time(b/numOps%5) / 4
		}
		p.ops = append(p.ops, op)
	}
	return p
}

// fuzzObs is what a driver observes after each top-level operation.
type fuzzObs struct {
	ret       Time
	now       Time
	processed uint64
	pending   int
	nextAt    Time
}

type fuzzFired struct {
	id  int
	now Time
}

// refEngine is the ordering oracle: a plain slice kept stably sorted by
// time, so equal timestamps pop in insertion order. It shares no code with
// Engine.
type refEngine struct {
	now       Time
	pending   []refEntry
	processed uint64
	fire      func(id int)
}

type refEntry struct {
	at Time
	id int
}

func (r *refEngine) schedule(at Time, id int) {
	r.pending = append(r.pending, refEntry{at, id})
	sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].at < r.pending[j].at })
}

func (r *refEngine) nextAt() Time {
	if len(r.pending) == 0 {
		return Time(math.Inf(1))
	}
	return r.pending[0].at
}

func (r *refEngine) popAndFire() {
	head := r.pending[0]
	r.pending = r.pending[1:]
	r.now = head.at
	r.processed++
	r.fire(head.id)
}

// run: events at or before until fire; stopping at the horizon moves the
// clock forward to it, never back.
func (r *refEngine) run(until Time) Time {
	for len(r.pending) > 0 {
		if r.pending[0].at > until {
			r.now = max(r.now, until)
			return r.now
		}
		r.popAndFire()
	}
	return r.now
}

// runBefore: events strictly before horizon fire; the clock then moves
// forward to horizon.
func (r *refEngine) runBefore(horizon Time) Time {
	for len(r.pending) > 0 && r.pending[0].at < horizon {
		r.popAndFire()
	}
	r.now = max(r.now, horizon)
	return r.now
}

func runFuzzOnEngine(p *fuzzProgram) ([]fuzzFired, []fuzzObs) {
	e := New()
	var log []fuzzFired
	var schedule func(id int)
	schedule = func(id int) {
		ev := &p.events[id]
		e.Schedule(e.Now()+ev.delta, func() {
			log = append(log, fuzzFired{id, e.Now()})
			for _, c := range ev.children {
				schedule(c)
			}
		})
	}
	// A pooled event's handler schedules its children through the pool it
	// runs from, reusing its own carrier for the first.
	var pool *Pool[int]
	pool = NewPool(e, func(id int) {
		log = append(log, fuzzFired{id, e.Now()})
		for _, c := range p.events[id].children {
			pool.Schedule(e.Now()+p.events[c].delta, c)
		}
	})
	var obs []fuzzObs
	for _, op := range p.ops {
		var ret Time
		switch op.kind {
		case opSchedule:
			schedule(op.event)
		case opPoolSchedule:
			pool.Schedule(e.Now()+p.events[op.event].delta, op.event)
		case opRun:
			ret = e.Run(e.Now() + op.off)
		case opRunBefore:
			ret = e.RunBefore(e.Now() + op.off)
		case opLane:
			e.Lane(op.off)
		}
		obs = append(obs, fuzzObs{ret, e.Now(), e.Processed(), e.Pending(), e.NextAt()})
	}
	obs = append(obs, fuzzObs{e.Run(Time(math.Inf(1))), e.Now(), e.Processed(), e.Pending(), e.NextAt()})
	return log, obs
}

func runFuzzOnRef(p *fuzzProgram) ([]fuzzFired, []fuzzObs) {
	r := &refEngine{}
	var log []fuzzFired
	schedule := func(id int) { r.schedule(r.now+p.events[id].delta, id) }
	r.fire = func(id int) {
		log = append(log, fuzzFired{id, r.now})
		for _, c := range p.events[id].children {
			schedule(c)
		}
	}
	var obs []fuzzObs
	snap := func(ret Time) fuzzObs {
		return fuzzObs{ret, r.now, r.processed, len(r.pending), r.nextAt()}
	}
	for _, op := range p.ops {
		var ret Time
		switch op.kind {
		case opSchedule, opPoolSchedule:
			schedule(op.event)
		case opRun:
			ret = r.run(r.now + op.off)
		case opRunBefore:
			ret = r.runBefore(r.now + op.off)
		}
		obs = append(obs, snap(ret))
	}
	obs = append(obs, snap(r.run(Time(math.Inf(1)))))
	return log, obs
}

// FuzzEventOrder replays random Schedule (at equal and distinct times, from
// the top level and from inside handlers, directly and through a Pool),
// Run and RunBefore sequences, with up to two fixed-latency lanes
// registered along the way, against refEngine and requires the same handler
// order, the same Now() inside every handler, and the same clock,
// Processed, Pending and NextAt after every operation. The oracle knows
// nothing of lanes or pools: they must not change the order.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1})
	f.Add([]byte{0, 200, 0, 130, 4, 70, 2, 45, 1, 9, 0, 255, 3, 17, 2})
	f.Add([]byte{0, 66, 0, 66, 0, 66, 33, 1, 8, 0, 5, 3, 41, 30, 0, 100, 1})
	// Lanes at 0.25 s and 0.5 s: registered up front, and the 0.25 s lane
	// registered while the 0.5 s lane holds events.
	f.Add([]byte{7, 0, 201, 6, 11, 10, 11, 0, 137, 7, 16, 41, 0, 201, 6, 11, 10, 22})
	f.Add([]byte{11, 0, 137, 7, 12, 0, 7, 7, 0, 201, 6, 11, 10, 41, 0, 137, 7, 16})
	// The same lanes with pooled schedules (4, 12) beside plain ones (0, 8).
	f.Add([]byte{7, 4, 201, 6, 11, 10, 0, 137, 7, 12, 41, 0, 8, 201, 6, 11, 10, 22})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzProgram(data)
		gotLog, gotObs := runFuzzOnEngine(p)
		wantLog, wantObs := runFuzzOnRef(p)
		if len(gotLog) != len(wantLog) {
			t.Fatalf("engine fired %d handlers, oracle %d", len(gotLog), len(wantLog))
		}
		for i := range wantLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("handler %d: engine fired event %d at %v, oracle event %d at %v",
					i, gotLog[i].id, gotLog[i].now, wantLog[i].id, wantLog[i].now)
			}
		}
		for i := range wantObs {
			if gotObs[i] != wantObs[i] {
				t.Fatalf("after op %d: engine %+v, oracle %+v", i, gotObs[i], wantObs[i])
			}
		}
	})
}
