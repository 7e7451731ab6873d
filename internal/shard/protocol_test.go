package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"
)

// The model fabric TestShardProtocolExhaustive runs step against. Each node
// is up, partitioned or crashed; a crash destroys the node's slabs and drops
// their leases, as cluster.Fabric does. Every ledger write lands in one move
// and reports in another, so its result can arrive after later faults.

type nodeState uint8

const (
	nodeUp nodeState = iota
	nodePartitioned
	nodeCrashed
)

// maxLives bounds life numbers: the shards' first lives plus one a move.
const maxLives = 16

// phase is where a model ticket is: what the driver would be waiting on.
type phase uint8

const (
	idle    phase = iota // not submitted, or delivered
	writing              // a ledger write in flight
	landed               // the write landed (ok says how); its result not yet fed
	serving              // a server submission awaiting its answer
	running              // a member running
)

type modelTicket struct {
	phase     phase
	shard     int
	life      int
	ok        bool   // landed: the write's result
	canceled  bool   // the member's context was canceled
	submitted bool   // the ticket was submitted
	delivered int    // effDeliver count
	records   uint32 // bit L: the ticket's record landed in life L
}

// world is one state of the model: the protocol's state, the fabric, and
// what the driver waits on for each ticket.
type world struct {
	st        state
	node      []nodeState
	lifeShard [maxLives]int8 // the shard of each life
	slab      uint32         // bit L: life L's ledger slab exists
	lease     [maxLives]int8 // holder of life L's ledger lease, -1 none
	adopted   [maxLives]uint8
	alone     uint32 // bit L: life L ended with no node up
	tickets   [2]modelTicket
	sigs      [2]uint64
	trace     []string
}

type stepFunc func(*state, event, []effect) []effect

func newWorld(shards int, sigs [2]uint64) *world {
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("shard%d", i)
	}
	w := &world{
		st:   state{ring: buildRing(names), shards: make([]lifeState, shards), tickets: map[uint64]ticketState{}, lives: shards},
		node: make([]nodeState, shards),
		sigs: sigs,
	}
	for i := range w.lease {
		w.lease[i], w.lifeShard[i] = -1, -1
	}
	for i := range w.st.shards {
		life := i + 1
		w.st.shards[i].num = life
		w.lifeShard[life], w.lease[life] = int8(i), int8(i)
		w.slab |= 1 << life
	}
	return w
}

func (w *world) clone() *world {
	c := *w
	c.st.shards = slices.Clone(w.st.shards)
	c.st.tickets = maps.Clone(w.st.tickets)
	c.node = slices.Clone(w.node)
	c.trace = slices.Clip(w.trace)
	return &c
}

// hash fingerprints everything but the trace and the ledger cursors, which
// only pick record offsets.
func (w *world) hash() uint64 {
	var b []byte
	for _, l := range w.st.shards {
		b = binary.AppendUvarint(b, uint64(l.num))
		b = append(b, boolByte(l.dead))
	}
	for id := uint64(1); id <= 2; id++ {
		t, ok := w.st.tickets[id]
		b = append(b, boolByte(ok), byte(t.shard), byte(t.life), byte(t.hops))
	}
	for _, n := range w.node {
		b = append(b, byte(n))
	}
	b = binary.AppendUvarint(b, uint64(w.st.lives))
	b = binary.AppendUvarint(b, uint64(w.slab))
	b = binary.AppendUvarint(b, uint64(w.alone))
	for i := range w.lease {
		b = append(b, byte(w.lease[i]), w.adopted[i], byte(w.lifeShard[i]))
	}
	for _, t := range w.tickets {
		b = append(b, byte(t.phase), byte(t.shard), byte(t.life), boolByte(t.ok), boolByte(t.canceled),
			boolByte(t.submitted), byte(t.delivered))
		b = binary.AppendUvarint(b, uint64(t.records))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// firstUp is the reroute oracle: the first shard on the ring from sig whose
// node is up, from the model fabric rather than the protocol's state.
func (w *world) firstUp(sig uint64) int {
	return w.st.ring.successor(sig, func(i int) bool { return w.node[i] == nodeUp })
}

func (w *world) anyUp() bool { return slices.Contains(w.node, nodeUp) }

// feed runs one event through step and performs its effects on the model.
// It returns the first invariant an effect breaks, or "".
func (w *world) feed(step stepFunc, ev event) string {
	wasAlive := make([]bool, len(w.st.shards))
	for i := range w.st.shards {
		wasAlive[i] = w.st.alive(i)
	}
	bad := ""
	for _, e := range step(&w.st, ev, nil) {
		var t *modelTicket
		if e.ticket > 0 {
			t = &w.tickets[e.ticket-1]
		}
		switch e.kind {
		case effWrite:
			if want := w.firstUp(w.sigs[e.ticket-1]); e.shard != want && bad == "" {
				bad = fmt.Sprintf("a walk goes to the first alive ring successor: ticket %d went to shard %d, want %d", e.ticket, e.shard, want)
			}
			t.phase, t.shard, t.life = writing, e.shard, e.life
		case effSubmit:
			t.phase, t.shard, t.life, t.canceled = serving, e.shard, e.life, false
		case effCancel:
			if t.phase == serving || t.phase == running {
				t.canceled = true
			}
		case effHandoff:
			if w.lease[e.life] == int8(e.shard) {
				w.lease[e.life] = int8(e.to)
				w.adopted[e.life]++
			}
		case effFree:
			if w.node[e.shard] == nodeUp && w.slab&(1<<e.life) != 0 {
				w.slab &^= 1 << e.life
				w.lease[e.life] = -1
			}
		case effStart:
			w.lifeShard[e.life] = int8(e.shard)
			if w.node[e.shard] == nodeUp {
				w.slab |= 1 << e.life
				w.lease[e.life] = int8(e.shard)
			}
		case effDeliver:
			t.phase = idle
			t.delivered++
		}
	}
	for i, l := range w.st.shards {
		if wasAlive[i] && l.dead && !w.anyUp() {
			w.alone |= 1 << l.num
		}
	}
	return bad
}

// check returns the first invariant w breaks, or "".
func (w *world) check() string {
	quiet := true
	for i, t := range w.tickets {
		if t.delivered > 1 {
			return fmt.Sprintf("each admitted ticket is delivered exactly once: ticket %d delivered %d times", i+1, t.delivered)
		}
		quiet = quiet && t.phase == idle
	}
	if quiet {
		for i, t := range w.tickets {
			if t.submitted && t.delivered != 1 {
				return fmt.Sprintf("each admitted ticket is delivered exactly once: ticket %d rests undelivered", i+1)
			}
		}
		if len(w.st.tickets) != 0 {
			return fmt.Sprintf("registries are empty at quiescence: %v", w.st.tickets)
		}
	}
	for s, l := range w.st.shards {
		if l.dead != (w.node[s] != nodeUp) {
			return fmt.Sprintf("a life ends only when its node goes down: shard %d node %d, life %d dead=%v", s, w.node[s], l.num, l.dead)
		}
	}
	for life := 1; life <= w.st.lives; life++ {
		s := int(w.lifeShard[life])
		live := w.st.live(s, life)
		switch {
		case !live && w.alone&(1<<life) == 0 && w.lease[life] == int8(s):
			return fmt.Sprintf("a dead life leases nothing: life %d of shard %d still leases its ledger", life, s)
		case w.adopted[life] > 1:
			return fmt.Sprintf("a dead life's ledger has at most one adopter: life %d has %d", life, w.adopted[life])
		case w.adopted[life] > 0 && (live || w.alone&(1<<life) != 0):
			return fmt.Sprintf("no adopter for a live life's ledger, or when no shard is alive: life %d (live=%v)", life, live)
		case w.lease[life] >= 0 && w.slab&(1<<life) == 0:
			return fmt.Sprintf("no lease outlives its slab: life %d's ledger is gone, leased by shard %d", life, w.lease[life])
		}
	}
	for id, t := range w.st.tickets {
		if t.life != 0 && w.tickets[id-1].records&(1<<t.life) == 0 {
			return fmt.Sprintf("a ticket's ledger record is in the life it is registered in: ticket %d registered in life %d without a record there", id, t.life)
		}
	}
	return ""
}

// move is one thing that can happen next in w: a submission, a write
// landing or reporting, a server's answer, a member settling, or a fault.
type move struct {
	name  string
	apply func(w *world, step stepFunc) string
}

func (w *world) moves() []move {
	var out []move
	for i := range w.tickets {
		id := uint64(i + 1)
		t := w.tickets[i]
		if !t.submitted && (i == 0 || w.tickets[i-1].submitted) {
			out = append(out, move{fmt.Sprintf("submit t%d", id), func(w *world, step stepFunc) string {
				w.tickets[id-1].submitted = true
				return w.feed(step, event{kind: evSubmit, ticket: id, sig: w.sigs[id-1]})
			}})
		}
		switch t.phase {
		case writing:
			out = append(out, move{fmt.Sprintf("t%d's write to life %d lands", id, t.life), func(w *world, _ stepFunc) string {
				t := &w.tickets[id-1]
				t.phase, t.ok = landed, w.node[t.shard] == nodeUp && w.slab&(1<<t.life) != 0
				if t.ok {
					t.records |= 1 << t.life
				}
				return ""
			}})
		case landed:
			out = append(out, move{fmt.Sprintf("t%d's write result (ok=%v) arrives", id, t.ok), func(w *world, step stepFunc) string {
				t := &w.tickets[id-1]
				t.phase = idle
				return w.feed(step, event{kind: evLedger, ticket: id, shard: t.shard, life: t.life, ok: t.ok})
			}})
		case serving:
			for _, ok := range []bool{true, false} {
				out = append(out, move{fmt.Sprintf("shard %d's server answers t%d: ok=%v", t.shard, id, ok), func(w *world, step stepFunc) string {
					t := &w.tickets[id-1]
					t.phase = idle
					if ok {
						t.phase = running
					}
					return w.feed(step, event{kind: evServer, ticket: id, shard: t.shard, life: t.life, ok: ok})
				}})
			}
		case running:
			evs := []event{{kind: evWake}, {kind: evWake, gaveUp: true}}
			if !t.canceled {
				evs = append(evs, event{kind: evSettle})
			}
			for _, ev := range evs {
				ev.ticket = id
				how := "completes"
				if ev.kind == evWake {
					how = fmt.Sprintf("fails (submitter gone: %v)", ev.gaveUp)
				}
				out = append(out, move{fmt.Sprintf("t%d's member %s", id, how), func(w *world, step stepFunc) string {
					w.tickets[id-1].phase = idle
					return w.feed(step, ev)
				}})
			}
		}
	}
	for s, n := range w.node {
		fault := func(name string, kind eventKind, to nodeState) {
			out = append(out, move{fmt.Sprintf("%s shard %d", name, s), func(w *world, step stepFunc) string {
				w.node[s] = to
				if to == nodeCrashed {
					for life := range maxLives {
						if int(w.lifeShard[life]) == s && w.slab&(1<<life) != 0 {
							w.slab &^= 1 << life
							w.lease[life] = -1
						}
					}
				}
				return w.feed(step, event{kind: kind, shard: s})
			}})
		}
		switch n {
		case nodeUp:
			fault("crash", evCrash, nodeCrashed)
			fault("partition", evPartition, nodePartitioned)
		case nodePartitioned:
			fault("heal", evHeal, nodeUp)
		case nodeCrashed:
			fault("restart", evRestart, nodeUp)
		}
	}
	return out
}

// explore searches every move sequence from a fresh world to depth,
// breadth-first, pruning worlds already seen. It returns the number of
// distinct worlds and, by invariant, the first trace that breaks it.
func explore(shards, depth int, step stepFunc) (int, map[string][]string) {
	w := newWorld(shards, homeKeys(shards))
	seen := map[uint64]bool{w.hash(): true}
	violations := map[string][]string{}
	frontier := []*world{w}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []*world
		for _, w := range frontier {
			for _, m := range w.moves() {
				c := w.clone()
				c.trace = append(c.trace, m.name)
				bad := m.apply(c, step)
				if bad == "" {
					bad = c.check()
				}
				if bad != "" {
					rule, _, _ := strings.Cut(bad, ":")
					if _, ok := violations[rule]; !ok {
						violations[rule] = append(c.trace, "=> "+bad)
					}
					continue
				}
				if h := c.hash(); !seen[h] {
					seen[h] = true
					next = append(next, c)
				}
			}
		}
		frontier = next
	}
	return len(seen), violations
}

// homeKeys returns two routing keys: the first homed on shard 0, the second
// on shard 1, with every shard alive.
func homeKeys(shards int) [2]uint64 {
	r := newWorld(shards, [2]uint64{}).st.ring
	var keys [2]uint64
	for want, i := 0, 0; want < 2; i++ {
		k := fnvAdd(fnvOffset, fmt.Sprint("job", i))
		if r.successor(k, func(int) bool { return true }) == want {
			keys[want] = k
			want++
		}
	}
	return keys
}

func protocolDepth() int {
	if testing.Short() {
		return 6
	}
	return 8
}

// TestShardProtocolExhaustive runs step over every interleaving of two
// tickets' walks, ledger writes, server answers and member outcomes with
// crashes, partitions, heals and restarts, to depth 8 (-short 6), on 2 and 3
// shards, and checks the protocol's invariants after every move.
func TestShardProtocolExhaustive(t *testing.T) {
	for _, shards := range []int{2, 3} {
		start := time.Now()
		n, violations := explore(shards, protocolDepth(), step)
		t.Logf("%d shards, depth %d: %d states in %v", shards, protocolDepth(), n, time.Since(start).Round(time.Millisecond))
		for _, trace := range violations {
			t.Errorf("%d shards:\n  %s", shards, strings.Join(trace, "\n  "))
		}
	}
}

// TestShardProtocolCatchesKnownBugs re-introduces, as wrappers around step,
// three bugs the router has had, and requires the checker to find each:
//   - the stale-life write: a ledger result acts on the shard's current life,
//     not the one it names, so a write that failed against a life a restart
//     replaced ends the new one, and a record that landed in the old life
//     registers the ticket in the new one (both are reported);
//   - an idle life's ledger left unadopted: a life that ends with nothing
//     registered hands off nothing;
//   - a watcher adopting a new life's ledger: a watcher that wakes on a dead
//     life hands off its shard's current ledger, which a restart replaced.
func TestShardProtocolCatchesKnownBugs(t *testing.T) {
	stale := func(st *state, ev event, out []effect) []effect {
		if ev.kind == evLedger {
			ev.life = st.shards[ev.shard].num
		}
		return step(st, ev, out)
	}
	idle := func(st *state, ev event, out []effect) []effect {
		out = step(st, ev, out)
		if (ev.kind == evCrash || ev.kind == evPartition) && !slices.ContainsFunc(out, func(e effect) bool { return e.kind == effCancel }) {
			out = slices.DeleteFunc(out, func(e effect) bool { return e.kind == effHandoff })
		}
		return out
	}
	watcher := func(st *state, ev event, out []effect) []effect {
		tk := st.tickets[ev.ticket]
		died := ev.kind == evWake && !ev.gaveUp && !st.live(tk.shard, tk.life)
		out = step(st, ev, out)
		if next := st.ring.walkFrom(tk.shard, st.alive); died && len(next) > 0 {
			out = append(out, effect{kind: effHandoff, shard: tk.shard, to: next[0], life: st.shards[tk.shard].num})
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		step  stepFunc
		rules []string
	}{
		{"stale-life write", stale, []string{"a life ends only when its node goes down", "a ticket's ledger record is in the life it is registered in"}},
		{"idle life unadopted", idle, []string{"a dead life leases nothing"}},
		{"watcher adopts a new life's ledger", watcher, []string{"no adopter for a live life's ledger, or when no shard is alive"}},
	} {
		_, violations := explore(2, 8, tc.step)
		for _, rule := range tc.rules {
			if trace, ok := violations[rule]; ok {
				t.Logf("%s:\n  %s", tc.name, strings.Join(trace, "\n  "))
			} else {
				t.Errorf("%s: the checker did not report %q (it reported %v)", tc.name, rule, violations)
			}
		}
	}
}

// TestStaleLedgerWriteEndsOnlyItsLife: a ledger write to life 1 whose result
// arrives after a crash and restart replaced it with life 3 ends nothing and
// registers the ticket nowhere, ok or failed: life 3 stays up, and the walk
// writes a new record to it.
func TestStaleLedgerWriteEndsOnlyItsLife(t *testing.T) {
	for _, ok := range []bool{false, true} {
		w := newWorld(2, homeKeys(2))
		effs := step(&w.st, event{kind: evSubmit, ticket: 1, sig: w.sigs[0]}, nil)
		if len(effs) != 1 || effs[0].kind != effWrite || effs[0].shard != 0 || effs[0].life != 1 {
			t.Fatalf("submit: effects %+v, want one write to shard 0's life 1", effs)
		}
		step(&w.st, event{kind: evCrash, shard: 0}, nil)
		step(&w.st, event{kind: evRestart, shard: 0}, nil)
		if w.st.shards[0].num != 3 {
			t.Fatalf("restarted shard 0 is in life %d, want 3", w.st.shards[0].num)
		}
		effs = step(&w.st, event{kind: evLedger, ticket: 1, shard: 0, life: 1, ok: ok}, nil)
		if len(effs) != 1 || effs[0].kind != effWrite || effs[0].shard != 0 || effs[0].life != 3 {
			t.Errorf("ok=%v: effects %+v, want only a write to shard 0's life 3", ok, effs)
		}
		if l := w.st.shards[0]; l.num != 3 || l.dead {
			t.Errorf("ok=%v: shard 0 is %+v, want life 3 alive", ok, l)
		}
		if tk := w.st.tickets[1]; tk.life != 0 {
			t.Errorf("ok=%v: ticket registered in life %d, want none", ok, tk.life)
		}
	}
}
