package vm

import (
	"math/rand"
	"testing"
)

// rightsModel is the map a protection domain kept its rights in before they
// became a slice, with the same idempotence rule.
type rightsModel struct {
	rights  map[StretchID]Rights
	changes int64
}

func (m *rightsModel) set(sid StretchID, r Rights) bool {
	if cur, ok := m.rights[sid]; ok && cur == r || !ok && r == 0 {
		return false
	}
	if r == 0 {
		delete(m.rights, sid)
	} else {
		m.rights[sid] = r
	}
	m.changes++
	return true
}

func (m *rightsModel) clone() *rightsModel {
	c := &rightsModel{rights: make(map[StretchID]Rights, len(m.rights)), changes: m.changes}
	for sid, r := range m.rights {
		c.rights[sid] = r
	}
	return c
}

// checkRights compares pd with the model on every stretch ID up to sids,
// and checks the slice holds only non-empty rights in ascending ID order.
func checkRights(t *testing.T, what string, pd *ProtectionDomain, m *rightsModel, sids int) {
	t.Helper()
	for sid := StretchID(0); sid < StretchID(sids); sid++ {
		if got, want := pd.RightsOn(sid), m.rights[sid]; got != want {
			t.Fatalf("%s: RightsOn(%d) = %v, model %v", what, sid, got, want)
		}
	}
	if pd.Changes() != m.changes {
		t.Fatalf("%s: Changes = %d, model %d", what, pd.Changes(), m.changes)
	}
	if len(pd.rights) != len(m.rights) {
		t.Fatalf("%s: %d entries, model %d", what, len(pd.rights), len(m.rights))
	}
	for i, e := range pd.rights {
		if e.r == 0 || i > 0 && pd.rights[i-1].sid >= e.sid {
			t.Fatalf("%s: entry %d %+v breaks the order: %+v", what, i, e, pd.rights)
		}
	}
}

// A protection domain keeps its rights as a slice ordered by stretch ID.
// Over seeded random grants, revokes and idempotent changes, through both
// the bootstrap path and SetRights, it must agree with the map model in
// RightsOn, Changes and each change's verdict, and a fork taken along the
// way must hold the model's copy and stay apart from its parent.
func TestRightsMatchMapModel(t *testing.T) {
	const sids = 24
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts, _, rt := world()
		owner, _ := ts.NewProtectionDomain()
		for sid := StretchID(0); sid < sids; sid++ {
			ts.GrantInitial(owner, sid, Meta)
		}
		pd, _ := ts.NewProtectionDomain()
		m := &rightsModel{rights: map[StretchID]Rights{}}
		type forked struct {
			pd *ProtectionDomain
			m  *rightsModel
		}
		var forks []forked
		for step := 0; step < 400; step++ {
			sid := StretchID(rng.Intn(sids))
			var r Rights
			switch rng.Intn(4) {
			case 0: // revoke, idempotent when nothing is held
			case 1:
				r = m.rights[sid] // idempotent
			default:
				r = Rights(rng.Intn(16))
			}
			want := m.set(sid, r)
			if rng.Intn(2) == 0 {
				ts.GrantInitial(pd, sid, r)
			} else if got, err := ts.SetRights(owner, pd, sid, r); err != nil || got != want {
				t.Fatalf("seed %d step %d: SetRights(%d, %v) = %v, %v; model %v", seed, step, sid, r, got, err, want)
			}
			checkRights(t, "parent", pd, m, sids)
			if step%100 == 99 {
				_, maps, err := ts.Fork(rt.Fork())
				if err != nil {
					t.Fatal(err)
				}
				forks = append(forks, forked{maps.PD[pd], m.clone()})
			}
		}
		for _, f := range forks {
			checkRights(t, "fork", f.pd, f.m, sids)
			// The fork is its own: a change there leaves the parent alone.
			f.pd.setRights(0, Read|Write|Execute)
			f.m.set(0, Read|Write|Execute)
			checkRights(t, "fork after change", f.pd, f.m, sids)
		}
		checkRights(t, "parent after the forks changed", pd, m, sids)
	}
}
