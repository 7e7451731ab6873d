package region

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/props"
)

// The handle lifecycle, enumerated: every sequence of operations up to a
// depth, on two regions — a Transfer one and a GlobalScratch one, each lent
// from birth or scoped — and three owners, held against a map model after
// every step. A handle lives in its region's storage, so what this pins is
// that no slot of a lent region is handed out twice: a handle a task body kept
// must fail as the model says, whatever was allocated, shared or moved after
// it. A scoped region freed before it was lent is the next scoped Alloc's of
// its kind, and its handles are touched no more, as Spec.Scoped promises.

// lifeKind is one kind of operation of the enumeration.
type lifeKind uint8

const (
	lifeAlloc       lifeKind = iota // allocate the region of kind at, owned by a on cpu0
	lifeAllocScoped                 // the same, scoped
	lifeTransfer                    // zero-copy: to the handle's own compute
	lifeMigrate                     // to the other compute, where the region's requirements cannot stay
	lifeShare                       // on the handle's own compute
	lifeShareRanked                 // on the handle's own compute, at the owner's rank
	lifeRelease
	lifeLend
)

// lifeOp is one step: an Alloc of region kind at, or an operation through the
// at'th handle ever returned, to owner to.
type lifeOp struct {
	kind lifeKind
	at   int
	to   Owner
}

func (op lifeOp) String() string {
	name := [...]string{"Alloc", "AllocScoped", "Transfer", "Migrate", "Share", "ShareRanked", "Release", "Lend"}[op.kind]
	if op.kind <= lifeAllocScoped {
		return fmt.Sprintf("%s(%s)", name, lifeClasses[op.at])
	}
	return fmt.Sprintf("h%d.%s(%s)", op.at, name, op.to)
}

var (
	lifeClasses = [2]props.RegionClass{props.Transfer, props.GlobalScratch}
	lifeOwners  = []Owner{"a", "b", "c"}
	// lifeComputes: cpu0 places both regions on DRAM; from gpu0 only GDDR meets
	// their latency, so a Transfer region migrates and a GlobalScratch one, which
	// also needs coherence, has nowhere to go.
	lifeComputes = [2]string{"node0/cpu0", "node0/gpu0"}
	lifeDevices  = [2]string{"node0/dram0", "node0/gddr0"}
	// errDupOwner stands for the error a share to an existing owner returns,
	// which has no sentinel.
	errDupOwner = errors.New("already owns")
	// errRecycled marks a handle of a region that went back to the free
	// lists: nothing may touch it.
	errRecycled = errors.New("recycled")
)

const lifeSize = 4096

// lifeRegion is the model of one region.
type lifeRegion struct {
	kind   int           // index into lifeClasses
	gpu    bool          // its owners run on gpu0, so it lives on GDDR
	gen    int           // bumped by every transfer, and twice by one that rolls back
	owners map[Owner]int // owner → the handle it holds
	freed  bool
	first  int  // the handle Alloc returned
	lent   bool // set from birth unless scoped, and by Lend
	// recycled marks a region freed before it was lent: back on the free
	// lists, handles and all.
	recycled bool
}

// lifeHandle is the model of one handle ever returned.
type lifeHandle struct {
	reg   *lifeRegion
	gen   int
	owner Owner
	gpu   bool
}

// lifeModel is the whole model: the live region of each kind, nil when there
// is none, and every handle ever returned.
type lifeModel struct {
	live    [2]*lifeRegion
	handles []lifeHandle
}

// enterErr is what any operation through handle i fails with before its own
// checks, nil when the handle is good: the handle its owner holds now.
func (mo *lifeModel) enterErr(i int) error {
	h := &mo.handles[i]
	switch j, owns := h.reg.owners[h.owner]; {
	case h.reg.recycled:
		return errRecycled
	case h.reg.freed:
		return ErrFreed
	case h.gen != h.reg.gen:
		return ErrStaleHandle
	case !owns || j != i:
		return ErrNotOwner
	}
	return nil
}

// next lists the operations to try at this state: an Alloc, lent and scoped,
// of each kind not live, and every operation, to every owner, through every
// handle not recycled.
func (mo *lifeModel) next() []lifeOp {
	var ops []lifeOp
	for k, r := range mo.live {
		if r == nil {
			ops = append(ops, lifeOp{kind: lifeAlloc, at: k}, lifeOp{kind: lifeAllocScoped, at: k})
		}
	}
	for i := range mo.handles {
		if mo.enterErr(i) == errRecycled {
			continue
		}
		for _, kind := range []lifeKind{lifeTransfer, lifeMigrate, lifeShare, lifeShareRanked} {
			for _, o := range lifeOwners {
				ops = append(ops, lifeOp{kind, i, o})
			}
		}
		ops = append(ops, lifeOp{kind: lifeRelease, at: i}, lifeOp{kind: lifeLend, at: i})
	}
	return ops
}

// apply advances the model by op and returns the error op must fail with,
// and whether the model moved (an operation refused before it changed
// anything leaves every continuation the same as the state before it).
func (mo *lifeModel) apply(op lifeOp) (want error, moved bool) {
	if op.kind <= lifeAllocScoped {
		r := &lifeRegion{kind: op.at, owners: map[Owner]int{"a": len(mo.handles)}, first: len(mo.handles), lent: op.kind == lifeAlloc}
		mo.live[op.at] = r
		mo.handles = append(mo.handles, lifeHandle{reg: r, owner: "a"})
		return nil, true
	}
	if err := mo.enterErr(op.at); err != nil {
		return err, false
	}
	h := mo.handles[op.at]
	r := h.reg
	switch op.kind {
	case lifeLend:
		moved = !r.lent
		r.lent = true
		return nil, moved
	case lifeTransfer, lifeMigrate:
		if len(r.owners) != 1 {
			return ErrExclusive, false
		}
		gpu := h.gpu != (op.kind == lifeMigrate)
		if gpu != r.gpu && lifeClasses[r.kind] == props.GlobalScratch {
			// Nowhere to migrate to: the move is rolled back, and the source
			// handle is the region's again, a generation on.
			r.gen += 2
			mo.handles[op.at].gen = r.gen
			return ErrNoPlacement, true
		}
		r.gen++
		r.gpu = gpu
		r.owners = map[Owner]int{op.to: len(mo.handles)}
		mo.handles = append(mo.handles, lifeHandle{reg: r, gen: r.gen, owner: op.to, gpu: gpu})
		return nil, true
	case lifeShare, lifeShareRanked:
		if !lifeClasses[r.kind].Shareable() {
			return ErrNotShareable, false
		}
		if _, dup := r.owners[op.to]; dup {
			return errDupOwner, false
		}
		r.owners[op.to] = len(mo.handles)
		mo.handles = append(mo.handles, lifeHandle{reg: r, gen: r.gen, owner: op.to, gpu: h.gpu})
		return nil, true
	default: // lifeRelease
		delete(r.owners, h.owner)
		if len(r.owners) == 0 {
			r.freed = true
			r.recycled = !r.lent
			mo.live[r.kind] = nil
		}
		return nil, true
	}
}

// lifeRun is one replay of a sequence on a manager.
type lifeRun struct {
	t       *testing.T
	m       *Manager
	mo      lifeModel
	handles []*Handle // every handle returned, in the model's order
	seq     []lifeOp
	// spare is the manager's free lists as the model knows them, by kind:
	// the first handle of each recycled region, last recycled last. It is
	// the manager's, so every replay on it shares one.
	spare *[2][]*Handle
}

// exec runs op on the manager and returns its error and the handle it
// returned, if any.
func (lr *lifeRun) exec(op lifeOp) (*Handle, error) {
	if op.kind <= lifeAllocScoped {
		return lr.m.Alloc(Spec{
			Name: "life", Class: lifeClasses[op.at], Size: lifeSize, Owner: "a", Compute: lifeComputes[0],
			Req:   props.Requirements{Latency: props.LatencyLow, Sync: props.Require, ByteAddr: props.Require},
			Clock: clockOf(lr.m), Scoped: op.kind == lifeAllocScoped,
		})
	}
	h := lr.handles[op.at]
	gpu := lr.mo.handles[op.at].gpu
	switch op.kind {
	case lifeLend:
		return nil, h.Lend()
	case lifeTransfer, lifeMigrate:
		if op.kind == lifeMigrate {
			gpu = !gpu
		}
		nh, _, err := h.Transfer(0, op.to, lifeComputes[b2i(gpu)])
		return nh, err
	case lifeShare:
		return h.Share(op.to, lifeComputes[b2i(gpu)])
	case lifeShareRanked:
		return h.ShareRanked(op.to, lifeComputes[b2i(gpu)], int(op.to[0]-'a')+1)
	default:
		return nil, h.Release()
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// step applies op to the model and the manager and checks that they agree:
// on the error, on the storage a scoped Alloc takes back, and, when check is
// set, on everything the manager shows.
func (lr *lifeRun) step(op lifeOp, check bool) (moved bool) {
	lr.seq = append(lr.seq, op)
	var reused *Handle
	if op.kind == lifeAllocScoped {
		if spare := &lr.spare[op.at]; len(*spare) > 0 {
			reused, *spare = (*spare)[len(*spare)-1], (*spare)[:len(*spare)-1]
		}
	}
	frees := op.kind == lifeRelease && lr.mo.enterErr(op.at) == nil && len(lr.mo.handles[op.at].reg.owners) == 1
	want, moved := lr.mo.apply(op)
	nh, err := lr.exec(op)
	if !sameErr(err, want) {
		lr.t.Fatalf("%v: %v, want %v", lr.seq, err, want)
	}
	if (nh != nil) != (len(lr.mo.handles) > len(lr.handles)) {
		lr.t.Fatalf("%v: returned handle %p, the model returns %d new", lr.seq, nh, len(lr.mo.handles)-len(lr.handles))
	}
	if reused != nil && nh != reused {
		lr.t.Fatalf("%v: a scoped Alloc returned %p, not the storage of the region last recycled, %p", lr.seq, nh, reused)
	}
	if nh != nil {
		for i, h := range lr.handles {
			if h == nh && lr.mo.enterErr(i) != errRecycled {
				lr.t.Fatalf("%v: returned handle h%d's storage again", lr.seq, i)
			}
		}
		lr.handles = append(lr.handles, nh)
	}
	if frees {
		if r := lr.mo.handles[op.at].reg; r.recycled {
			lr.spare[r.kind] = append(lr.spare[r.kind], lr.handles[r.first])
		}
	}
	if check {
		lr.check()
	}
	return moved
}

// sameErr reports whether err is of want's kind.
func sameErr(err, want error) bool {
	if want == errDupOwner {
		return err != nil && strings.Contains(err.Error(), want.Error())
	}
	return errors.Is(err, want) && (want != nil || err == nil)
}

// check compares everything the manager shows with the model: live regions,
// bytes per device, and, through every handle ever returned, that a good one
// reads and any other fails as the model says.
func (lr *lifeRun) check() {
	t, m, mo := lr.t, lr.m, &lr.mo
	wantBytes := map[string]int64{}
	live := 0
	for _, r := range mo.live {
		if r != nil {
			live++
			wantBytes[lifeDevices[b2i(r.gpu)]] += lifeSize
		}
	}
	if got := m.Live(); got != live {
		t.Fatalf("%v: %d live regions, the model has %d", lr.seq, got, live)
	}
	if got := m.DeviceBytes(); !maps.Equal(got, wantBytes) {
		t.Fatalf("%v: device bytes %v, the model has %v", lr.seq, got, wantBytes)
	}
	good := map[*Handle]int{}
	buf := make([]byte, 64)
	for i, h := range lr.handles {
		want := mo.enterErr(i)
		if want == errRecycled {
			continue
		}
		if h.r == nil {
			t.Fatalf("%v: h%d's storage was zeroed, though its region was lent", lr.seq, i)
		}
		if _, err := h.ReadAt(0, 0, buf); !sameErr(err, want) {
			t.Fatalf("%v: h%d.ReadAt: %v, want %v", lr.seq, i, err, want)
		}
		if want != nil {
			continue
		}
		if j, dup := good[h]; dup {
			t.Fatalf("%v: good handles h%d and h%d are the same storage", lr.seq, j, i)
		}
		good[h] = i
	}
}

// release lets every good handle go, so the next replay starts from a
// manager with nothing live.
func (lr *lifeRun) release() {
	for i := range lr.handles {
		if lr.mo.enterErr(i) == nil {
			lr.step(lifeOp{kind: lifeRelease, at: i}, false)
		}
	}
	if live := lr.m.Live(); live != 0 {
		lr.t.Fatalf("%v: %d regions live after every owner let go", lr.seq, live)
	}
}

// TestHandleLifecycleExhaustive runs every sequence of operations up to depth
// 5 (4 under -short) — Alloc, lent or scoped, a zero-copy Transfer, a
// Transfer that must migrate (and, for the GlobalScratch region, cannot, so
// rolls back), Share, ShareRanked, Release and Lend, each through every handle
// ever returned, stale ones included, and to each of three owners — and after
// each step compares the manager with the model: the kind of every error, Live
// and DeviceBytes, that a returned handle is storage no handle of a lent
// region had before, that a scoped Alloc takes back the storage of the region
// of its kind last freed unlent, and that each handle ever returned but a
// recycled region's reads if the model holds it good and fails as the model
// says if not. Every sequence is replayed from nothing on one manager and
// released again; an operation refused before it changed anything is checked,
// and the sequences that go on from it are the ones that go on from the state
// before it.
func TestHandleLifecycleExhaustive(t *testing.T) {
	depth := 5
	if testing.Short() {
		depth = 4
	}
	m := newManager(t)
	var spare [2][]*Handle
	steps := 0
	var walk func(seq []lifeOp)
	walk = func(seq []lifeOp) {
		if len(seq) == depth {
			return
		}
		var mo lifeModel
		for _, op := range seq {
			mo.apply(op)
		}
		for _, op := range mo.next() {
			lr := &lifeRun{t: t, m: m, spare: &spare}
			for _, prev := range seq {
				lr.step(prev, false)
			}
			moved := lr.step(op, true)
			lr.release()
			steps++
			if moved {
				walk(append(seq[:len(seq):len(seq)], op))
			}
		}
	}
	walk(nil)
	t.Logf("%d sequences checked to depth %d", steps, depth)
}
