package region

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/props"
)

// ownersModel is the reference the inline owner set is held to: a region's
// ownership as the map it used to be, with the generation a transfer bumps.
type ownersModel struct {
	owners map[Owner]string
	gen    int
	freed  bool
}

// modelHandle is a handle with what the model knows of it: the generation it
// was made in. Its owner is the handle's own.
type modelHandle struct {
	h   *Handle
	gen int
}

// enterErr is the error class the model expects of any operation through mh,
// before the operation's own checks: nil when the handle is good.
func (mo *ownersModel) enterErr(mh modelHandle) error {
	switch _, owns := mo.owners[mh.h.Owner()]; {
	case mo.freed:
		return ErrFreed
	case mh.gen != mo.gen:
		return ErrStaleHandle
	case !owns:
		return ErrNotOwner
	}
	return nil
}

// TestOwnerSetAgainstMapModel drives one region at a time through seeded
// random sequences of Share, ShareRanked, Transfer and Release — through any
// handle it ever gave out, good or not, to owner names drawn from a pool small
// enough to collide — and after every step compares with the map model: the
// error class of the step, the owner count and the representative compute
// device, the manager's live count, and that a probe through the handle just
// used fails or succeeds as the model says (so a released owner's next access
// fails, whatever its handle had stamped). Sequences that mostly share reach
// well past the owners a region holds in place, so the spill path runs.
func TestOwnerSetAgainstMapModel(t *testing.T) {
	const sequences, depth = 3000, 40
	computes := []string{"node0/cpu0", "node0/cpu1"}
	m := newManager(t)
	widest := 0
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		shareBias := 1 + rng.Intn(8) // of 10: how often a step shares
		names := 3 + rng.Intn(14)    // owner name pool
		var mo *ownersModel
		var handles []modelHandle
		for step := 0; step < depth; step++ {
			if mo == nil || mo.freed {
				h := mustAlloc(t, m, Spec{Name: "r", Class: props.GlobalScratch, Size: 64, Owner: "o0", Compute: computes[0]})
				mo = &ownersModel{owners: map[Owner]string{"o0": computes[0]}}
				handles = []modelHandle{{h, 0}}
			}
			mh := handles[rng.Intn(len(handles))]
			to := Owner(fmt.Sprint("o", rng.Intn(names)))
			comp := computes[rng.Intn(len(computes))]
			where := fmt.Sprintf("seq %d step %d via %s", seq, step, mh.h.Owner())
			want := mo.enterErr(mh)
			switch op := rng.Intn(10); {
			case op < shareBias: // Share or ShareRanked
				var nh *Handle
				var err error
				if rng.Intn(2) == 0 {
					nh, err = mh.h.Share(to, comp)
				} else {
					nh, err = mh.h.ShareRanked(to, comp, rng.Intn(64))
				}
				_, dup := mo.owners[to]
				switch {
				case want != nil:
					if !errors.Is(err, want) {
						t.Fatalf("%s: share: %v, want %v", where, err, want)
					}
				case dup:
					if err == nil || !strings.Contains(err.Error(), "already owns") {
						t.Fatalf("%s: share with duplicate owner %s: %v", where, to, err)
					}
				default:
					if err != nil {
						t.Fatalf("%s: share: %v", where, err)
					}
					mo.owners[to] = comp
					handles = append(handles, modelHandle{nh, mo.gen})
				}
			case op < shareBias+1 || op == 9: // Transfer
				nh, _, err := mh.h.Transfer(0, to, comp)
				switch {
				case want != nil:
					if !errors.Is(err, want) {
						t.Fatalf("%s: transfer: %v, want %v", where, err, want)
					}
				case len(mo.owners) != 1:
					if !errors.Is(err, ErrExclusive) || !strings.Contains(err.Error(), fmt.Sprintf(": %d owners", len(mo.owners))) {
						t.Fatalf("%s: transfer of a region with %d owners: %v", where, len(mo.owners), err)
					}
				default:
					if err != nil {
						t.Fatalf("%s: transfer: %v", where, err)
					}
					mo.gen++
					mo.owners = map[Owner]string{to: comp}
					handles = append(handles, modelHandle{nh, mo.gen})
				}
			default: // Release
				err := mh.h.Release()
				if !errors.Is(err, want) {
					t.Fatalf("%s: release: %v, want %v", where, err, want)
				}
				if want == nil {
					delete(mo.owners, mh.h.Owner())
					mo.freed = len(mo.owners) == 0
				}
			}
			// The handle just used, probed: good or bad exactly as the model has it.
			if _, err := mh.h.Size(); !errors.Is(err, mo.enterErr(mh)) {
				t.Fatalf("%s: probe after the step: %v, want %v", where, err, mo.enterErr(mh))
			}
			wantLive := 1
			if mo.freed {
				wantLive = 0
			}
			if live := m.Live(); live != wantLive {
				t.Fatalf("%s: %d live regions, want %d", where, live, wantLive)
			}
			r := mh.h.r
			m.mu.Lock()
			n, rep := r.owners.len(), ownerCompute(r)
			for o, c := range mo.owners {
				if sl := r.owners.find(o); sl == nil || sl.compute != c {
					t.Errorf("%s: owner %s on %s: set has %+v", where, o, c, sl)
				}
			}
			m.mu.Unlock()
			wantRep := ""
			for _, c := range mo.owners {
				if wantRep == "" || c < wantRep {
					wantRep = c
				}
			}
			if n != len(mo.owners) || rep != wantRep {
				t.Fatalf("%s: %d owners represented by %q, model has %d by %q", where, n, rep, len(mo.owners), wantRep)
			}
			widest = max(widest, n)
		}
		// Leave nothing live for the next sequence.
		for o := range mo.owners {
			for _, mh := range handles {
				if mh.h.Owner() == o && mh.gen == mo.gen {
					if err := mh.h.Release(); err != nil {
						t.Fatalf("seq %d: releasing %s: %v", seq, o, err)
					}
					break
				}
			}
		}
		if live := m.Live(); live != 0 {
			t.Fatalf("seq %d: %d regions left live", seq, live)
		}
	}
	if widest < 9 {
		t.Errorf("at most %d concurrent owners: the spill path (beyond %d) needs 9", widest, ownersInline)
	}
}
