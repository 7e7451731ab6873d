package shard

import (
	"cmp"
	"slices"
)

// The router's protocol: every decision about shard lives, ledgers and
// ticket walks is step, a pure function from (state, event) to effects. The
// driver (Cluster.feed) performs them and feeds results back in; slabs,
// cancel funcs and server tickets stay there, keyed by life or ticket.
type state struct {
	ring    *ring
	shards  []lifeState            // each shard's current life
	tickets map[uint64]ticketState // routed tickets not yet delivered
	lives   int                    // the last life number handed out
}

// lifeState is one incarnation of a shard. Life numbers are unique, so a
// result that names an old life cannot touch the one that replaced it.
type lifeState struct {
	num  int
	dead bool
	seq  int64 // ledger records written: the ring-buffer cursor
}

// ticketState is one routed ticket from its submission to its delivery.
// The tickets a life registers are the ones whose life names it.
type ticketState struct {
	sig   uint64
	shard int // the shard of life
	life  int // the life the ticket is registered in; 0 while it walks
	hops  int // ledger writes since the ticket last left a life
}

type eventKind uint8

const (
	evSubmit    eventKind = iota // a new routed ticket with its sig: walk the ring
	evLedger                     // a ledger write to life on shard landed (ok) or failed
	evServer                     // shard's server took (ok) or refused the ticket
	evCrash                      // shard's node crashed
	evPartition                  // shard's node was cut off
	evHeal                       // shard's node was reconnected
	evRestart                    // shard's node came back empty
	evWake                       // the ticket's member failed; gaveUp: its submitter left
	evSettle                     // the ticket's member completed
)

type event struct {
	kind        eventKind
	ticket, sig uint64
	shard, life int
	ok, gaveUp  bool
}

type effectKind uint8

const (
	effWrite   effectKind = iota // write ticket's record at cursor seq of life's ledger on shard
	effSubmit                    // submit ticket to shard's server, registered in life
	effCancel                    // cancel ticket's member: its life ended, or it left it
	effHandoff                   // hand life's ledger lease from shard to shard to
	effAbandon                   // shard's life ended: its exported regions go to to (-1: none)
	effFree                      // free life's ledger slab on shard
	effStart                     // lease a fresh ledger slab for life on shard
	effDeliver                   // the ticket's walk or member ended with outcome
)

type effect struct {
	kind            effectKind
	outcome         outcome
	ticket          uint64
	shard, to, life int
	seq             int64
}

// outcome is how a ticket's walk ended.
type outcome uint8

const (
	outPlaced  outcome = iota // no delivery: the ticket rests in a member
	outDone                   // the member completed
	outFailed                 // the member failed in a life that lived on, or the submitter left
	outNoShard                // no alive shard took the ticket
	outRefused                // an alive shard's server refused it
)

// step applies one event to st and appends the effects it asks for to out.
func step(st *state, ev event, out []effect) []effect {
	switch ev.kind {
	case evSubmit:
		st.tickets[ev.ticket] = ticketState{sig: ev.sig}
		return st.walk(ev.ticket, out)
	case evLedger:
		// A result acts only on the life it names: a failed write ends that
		// life, and a ticket is registered only where its record landed.
		if st.live(ev.shard, ev.life) {
			if ev.ok {
				t := st.tickets[ev.ticket]
				t.shard, t.life = ev.shard, ev.life
				st.tickets[ev.ticket] = t
				return append(out, effect{kind: effSubmit, ticket: ev.ticket, shard: ev.shard, life: ev.life})
			}
			out = st.end(ev.shard, out)
		}
		return st.walk(ev.ticket, out)
	case evServer, evWake:
		// A refusal or failure in a life that ended walks on; else it is final.
		if ev.ok {
			return out
		}
		var died bool
		if out, died = st.leave(ev.ticket, out); died && !ev.gaveUp {
			return st.walk(ev.ticket, out)
		}
		if ev.kind == evServer {
			return st.deliver(ev.ticket, outRefused, out)
		}
		return st.deliver(ev.ticket, outFailed, out)
	case evCrash, evPartition:
		return st.end(ev.shard, out)
	case evHeal, evRestart:
		l := &st.shards[ev.shard]
		if !l.dead {
			return out
		}
		out = append(out, effect{kind: effFree, shard: ev.shard, life: l.num})
		st.lives++
		*l = lifeState{num: st.lives}
		return append(out, effect{kind: effStart, shard: ev.shard, life: l.num})
	case evSettle:
		out, _ = st.leave(ev.ticket, out)
		return st.deliver(ev.ticket, outDone, out)
	}
	return out
}

// alive is the ring's liveness oracle; live: life is shard's, and alive.
func (st *state) alive(i int) bool          { return !st.shards[i].dead }
func (st *state) live(shard, life int) bool { return st.shards[shard].num == life && st.alive(shard) }

// walk writes the ticket's record to the current life of the first alive
// shard on the ring from its sig, or delivers outNoShard when none is left
// or the walk ran past every shard.
func (st *state) walk(id uint64, out []effect) []effect {
	t := st.tickets[id]
	t.hops++
	st.tickets[id] = t
	s := st.ring.successor(t.sig, st.alive)
	if s < 0 || t.hops > len(st.shards)+1 {
		return st.deliver(id, outNoShard, out)
	}
	l := &st.shards[s]
	out = append(out, effect{kind: effWrite, ticket: id, shard: s, life: l.num, seq: l.seq})
	l.seq++
	return out
}

// end ends shard's current life, idle or not: it cancels the tickets
// registered in it and hands its ledger and exported regions to the first
// alive ring successor.
func (st *state) end(shard int, out []effect) []effect {
	l := &st.shards[shard]
	if l.dead {
		return out
	}
	l.dead = true
	from := len(out)
	for id, t := range st.tickets {
		if t.life == l.num {
			out = append(out, effect{kind: effCancel, ticket: id})
		}
	}
	slices.SortFunc(out[from:], func(a, b effect) int { return cmp.Compare(a.ticket, b.ticket) })
	to := -1
	if next := st.ring.walkFrom(shard, st.alive); len(next) > 0 {
		to = next[0]
		out = append(out, effect{kind: effHandoff, shard: shard, to: to, life: l.num})
	}
	return append(out, effect{kind: effAbandon, shard: shard, to: to})
}

// leave drops the ticket's registration, releases its member's context, and
// reports whether the life it was in has ended, even if its shard came back.
// A walk after it is a new walk.
func (st *state) leave(id uint64, out []effect) ([]effect, bool) {
	t := st.tickets[id]
	died := !st.live(t.shard, t.life)
	t.life, t.hops = 0, 0
	st.tickets[id] = t
	return append(out, effect{kind: effCancel, ticket: id}), died
}

// deliver ends the ticket.
func (st *state) deliver(id uint64, o outcome, out []effect) []effect {
	delete(st.tickets, id)
	return append(out, effect{kind: effDeliver, ticket: id, outcome: o})
}
