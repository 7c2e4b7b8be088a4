package core

import (
	"testing"
	"time"

	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// viewEnv returns a lone simulated environment for the node with the given
// ID — enough to drive SetView without any peers.
func viewEnv(id wire.NodeID) *transport.SimEnv {
	nw := simnet.New(1, 1)
	env := transport.NewSimEnv(nw, transport.NewRegistry(), 0, 1)
	env.SetLocalID(id)
	return env
}

// applyDelta applies a one-step delta to v, failing the test on error.
func applyDelta(t *testing.T, v *membership.ViewInfo, adds []wire.Member, removes ...wire.NodeID) *membership.ViewInfo {
	t.Helper()
	next, err := v.ApplyDelta(wire.ViewDelta{
		Epoch: v.Stamp().Epoch, BaseVersion: v.VersionNum(), Version: v.VersionNum() + 1,
		Adds: adds, Removes: removes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// slotView builds the slot-addressed view in which ID i occupies slot i.
func slotView(t *testing.T, n int) *membership.ViewInfo {
	t.Helper()
	ms := make([]wire.Member, n)
	for i := range ms {
		ms[i] = wire.Member{ID: wire.NodeID(i), Slot: uint16(i)}
	}
	v, err := membership.NewViewInfo(wire.View{Epoch: 1, Version: 1, Slots: uint16(n), Members: ms})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// liveRow returns an n-entry row whose entry about slot i reads latency
// base+i, alive, except the origin's own entry (zero) and the slots in dead.
func liveRow(n, origin int, base uint16, dead ...int) []wire.LinkEntry {
	row := make([]wire.LinkEntry, n)
	for i := range row {
		row[i] = wire.LinkEntry{Latency: base + uint16(i), Status: wire.MakeStatus(true, 0)}
	}
	for _, d := range dead {
		row[d] = wire.LinkEntry{Status: wire.StatusDead}
	}
	return lsdb.SelfRow(origin, row)
}

func TestQuorumSetViewCarriesState(t *testing.T) {
	env := viewEnv(0)
	old := membership.NewStaticView([]wire.NodeID{0, 1, 2, 3})
	q, err := NewQuorum(env, QuorumConfig{Interval: 15 * time.Second}, old, 0)
	if err != nil {
		t.Fatal(err)
	}
	q.SelfRow = func() []wire.LinkEntry { return nil }
	q.LinkAlive = func(slot int) bool { return true }

	// A stored client row and live routes: to ID 2 via ID 1, to ID 3 direct.
	now := env.Now()
	if !q.table.Put(1, lsdb.Row{Seq: 3, When: now, Entries: liveRow(4, 1, 10)}) {
		t.Fatal("row not stored")
	}
	q.routes[2] = RouteEntry{Hop: 1, Cost: 30, When: now, From: 1, Source: SourceRendezvous}
	q.routes[3] = RouteEntry{Hop: 3, Cost: 40, When: now, From: -1, Source: SourceSelf}
	q.recAbout[1] = make([]time.Duration, 4)
	q.recAbout[1][2] = now.Sub(q.origin)

	// ID 1 leaves (slot 1 becomes a tombstone) and ID 9 joins at slot 4.
	next := applyDelta(t, old, []wire.Member{{ID: 9, Slot: 4}}, 1)
	if err := q.SetView(next, 0); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.ViewExtends != 1 || st.ViewRemaps != 0 {
		t.Fatalf("extends=%d remaps=%d, want 1/0", st.ViewExtends, st.ViewRemaps)
	}
	// The route via departed hop 1 is dropped; the direct route to ID 3
	// stays where it was.
	if q.routes[2].Source != SourceNone {
		t.Errorf("route through the departed hop survived: %+v", q.routes[2])
	}
	if e := q.routes[3]; e.Source != SourceSelf || e.Hop != 3 || e.Cost != 40 {
		t.Errorf("direct route = %+v, want hop 3 cost 40", e)
	}
	if len(q.routes) != 5 || q.routes[4].Source != SourceNone {
		t.Errorf("routes not grown to the new slot: %d entries", len(q.routes))
	}
	// The departed client's row and its rendezvous silence tracking are gone.
	if q.table.Get(1) != nil {
		t.Error("departed member's row survived")
	}
	if k := silenceSenders(q); k != 0 {
		t.Errorf("silence stamps carried %d senders across a departed rendezvous: %v", k, q.recAbout)
	}
}

func TestQuorumSetViewRemapsClientRows(t *testing.T) {
	// Client rows are keyed by slot, and a survivor keeps its slot, so its
	// row stays in place: same bytes, except the entry about the departed
	// member, which is forced dead.
	env := viewEnv(0)
	old := membership.NewStaticView([]wire.NodeID{0, 1, 2, 3})
	q, err := NewQuorum(env, QuorumConfig{Interval: 15 * time.Second}, old, 0)
	if err != nil {
		t.Fatal(err)
	}
	q.table.Put(2, lsdb.Row{Seq: 7, When: env.Now(), Entries: liveRow(4, 2, 10)})

	next := applyDelta(t, old, []wire.Member{{ID: 9, Slot: 4}}, 1)
	if err := q.SetView(next, 0); err != nil {
		t.Fatal(err)
	}
	r := q.table.Get(2)
	if r == nil || r.Seq != 7 {
		t.Fatalf("client row = %+v", r)
	}
	if got := r.Entries[3]; got.Latency != 13 || !wire.StatusAlive(got.Status) {
		t.Errorf("entry about ID 3 = %+v, want latency 13 alive", got)
	}
	if wire.StatusAlive(r.Entries[1].Status) {
		t.Error("entry about the departed member reads alive")
	}
	if got := r.Cost(4); got != wire.InfCost {
		t.Errorf("entry about the new member = %d, want InfCost", got)
	}
	if got, want := q.table.Matrix().Row(2)[3], wire.Cost(13); got != want {
		t.Errorf("cost via matrix = %d, want %d", got, want)
	}
}

func TestFullMeshSetViewCarriesState(t *testing.T) {
	env := viewEnv(0)
	old := membership.NewStaticView([]wire.NodeID{0, 1, 2})
	f := NewFullMesh(env, FullMeshConfig{}, old, 0)
	now := env.Now()
	f.routes[2] = RouteEntry{Hop: 2, Cost: 25, When: now, From: -1, Source: SourceSelf}
	f.table.Put(2, lsdb.Row{Seq: 2, When: now, Entries: liveRow(3, 2, 5, 1)})
	gen := f.table.Gen(2)

	next := applyDelta(t, old, []wire.Member{{ID: 7, Slot: 3}}, 1)
	f.SetView(next, 0)
	if ext, rem := f.ViewChangeStats(); ext != 1 || rem != 0 {
		t.Fatalf("extends=%d remaps=%d, want 1/0", ext, rem)
	}
	if e := f.routes[2]; e.Source != SourceSelf || e.Hop != 2 || e.Cost != 25 {
		t.Errorf("carried route = %+v", e)
	}
	if r := f.table.Get(2); r == nil || r.Seq != 2 || f.table.Gen(2) != gen {
		t.Errorf("carried row = %+v (gen %d, want %d)", r, f.table.Gen(2), gen)
	}
}

// TestSetViewSelfMoveStaysInPlace: a member is removed and re-admitted at a
// different slot, then installs the new view over the one it held before.
// Everyone else kept their slots, so both routers take the change in place:
// no cold rebuild, and rows and routes about unchanged members keep their
// bytes and generations. Only the node's own old slot is retired.
func TestSetViewSelfMoveStaysInPlace(t *testing.T) {
	const self, n = wire.NodeID(4), 9
	v1 := slotView(t, n)
	// Removed (slot 4 becomes a tombstone), then re-admitted at slot 9.
	v3 := applyDelta(t, applyDelta(t, v1, nil, self), []wire.Member{{ID: self, Slot: 9}})

	env := viewEnv(self)
	q, err := NewQuorum(env, QuorumConfig{}, v1, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFullMesh(env, FullMeshConfig{}, v1, 4)
	now := env.Now()
	// Every other member's row; while the node was gone they saw it dead,
	// except member 7, whose row still holds a live cost toward it.
	for s := 0; s < n; s++ {
		if s == 4 {
			continue
		}
		row := liveRow(n, s, 10, 4)
		if s == 7 {
			row = liveRow(n, s, 10)
		}
		for _, tab := range []*lsdb.Table{q.table, f.table} {
			if !tab.Put(s, lsdb.Row{Seq: 1, When: now, Entries: append([]wire.LinkEntry(nil), row...)}) {
				t.Fatalf("row %d rejected", s)
			}
		}
		e := RouteEntry{Hop: s, Cost: wire.Cost(10 + s), When: now, From: -1, Source: SourceSelf}
		q.routes[s], f.routes[s] = e, e
	}
	type snap struct {
		gen   uint32
		bytes []wire.LinkEntry
	}
	snapshot := func(tab *lsdb.Table) map[int]snap {
		m := make(map[int]snap)
		for s := 0; s < n; s++ {
			if r := tab.Get(s); r != nil {
				m[s] = snap{tab.Gen(s), append([]wire.LinkEntry(nil), r.Entries...)}
			}
		}
		return m
	}
	qBefore, fBefore := snapshot(q.table), snapshot(f.table)
	f.lastValid = true // as after a recompute

	if err := q.SetView(v3, 9); err != nil {
		t.Fatal(err)
	}
	f.SetView(v3, 9)

	if st := q.Stats(); st.ViewRemaps != 0 || st.ViewExtends != 1 {
		t.Errorf("quorum: extends=%d remaps=%d, want 1/0", st.ViewExtends, st.ViewRemaps)
	}
	if ext, rem := f.ViewChangeStats(); rem != 0 || ext != 1 {
		t.Errorf("fullmesh: extends=%d remaps=%d, want 1/0", ext, rem)
	}
	if f.lastValid {
		t.Error("fullmesh kept its incremental snapshot although its source row moved")
	}
	for _, c := range []struct {
		name   string
		tab    *lsdb.Table
		before map[int]snap
		routes []RouteEntry
	}{{"quorum", q.table, qBefore, q.routes}, {"fullmesh", f.table, fBefore, f.routes}} {
		name := c.name
		for s := 0; s < n; s++ {
			b, ok := c.before[s]
			if !ok {
				continue
			}
			r := c.tab.Get(s)
			if r == nil {
				t.Fatalf("%s: row %d dropped", name, s)
			}
			if s == 7 {
				// Its live entry about the retired slot is forced dead.
				if c.tab.Gen(s) == b.gen || wire.StatusAlive(r.Entries[4].Status) {
					t.Errorf("%s: row 7 still names the old self slot alive", name)
				}
				continue
			}
			if c.tab.Gen(s) != b.gen {
				t.Errorf("%s: gen[%d] = %d, want %d", name, s, c.tab.Gen(s), b.gen)
			}
			for i, e := range b.bytes {
				if r.Entries[i] != e {
					t.Errorf("%s: row %d entry %d changed", name, s, i)
				}
			}
			if e := c.routes[s]; e.Source != SourceSelf || e.Hop != s {
				t.Errorf("%s: route to unchanged slot %d = %+v", name, s, e)
			}
		}
		if c.routes[4].Source != SourceNone || c.routes[9].Source != SourceNone {
			t.Errorf("%s: routes to the old or new self slot: %+v %+v", name, c.routes[4], c.routes[9])
		}
	}
}

// TestSetViewSurvivorMoveRebuildsCold covers the one remaining view-change
// branch: a member other than the node itself moves to a new slot (no
// coordinator does this, so the view is built by hand). Both routers must
// rebuild cold, and nothing keyed by an old slot may survive.
func TestSetViewSurvivorMoveRebuildsCold(t *testing.T) {
	const n = 9
	v1 := slotView(t, n)
	ms := append([]wire.Member(nil), v1.Members()...)
	ms[5].Slot = 9 // ID 5 moves from slot 5 to slot 9
	v2, err := membership.NewViewInfo(wire.View{Epoch: 1, Version: 2, Slots: 10, Members: ms})
	if err != nil {
		t.Fatal(err)
	}

	env := viewEnv(0)
	q, err := NewQuorum(env, QuorumConfig{}, v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFullMesh(env, FullMeshConfig{}, v1, 0)
	now := env.Now()
	for s := 1; s < n; s++ {
		row := lsdb.Row{Seq: 1, When: now, Entries: liveRow(n, s, 10)}
		q.table.Put(s, row)
		f.table.Put(s, lsdb.Row{Seq: 1, When: now, Entries: liveRow(n, s, 10)})
		e := RouteEntry{Hop: s, Cost: 10, When: now, From: s, Source: SourceRendezvous}
		q.routes[s], f.routes[s] = e, e
		q.recAbout[s] = make([]time.Duration, n)
		q.selfPairCache[s] = selfPairVal{hop: int32(s)}
	}
	q.pairCache[pairKey(1, 2)] = pairVal{hop: 3}
	q.failovers[5] = &failoverState{server: 5, tried: map[int]bool{}}

	if err := q.SetView(v2, 0); err != nil {
		t.Fatal(err)
	}
	f.SetView(v2, 0)

	if st := q.Stats(); st.ViewRemaps != 1 || st.ViewExtends != 0 {
		t.Errorf("quorum: extends=%d remaps=%d, want 0/1", st.ViewExtends, st.ViewRemaps)
	}
	if ext, rem := f.ViewChangeStats(); rem != 1 || ext != 0 {
		t.Errorf("fullmesh: extends=%d remaps=%d, want 0/1", ext, rem)
	}
	for _, tab := range []*lsdb.Table{q.table, f.table} {
		if tab.N() != 10 {
			t.Errorf("table spans %d slots, want 10", tab.N())
		}
		for s := 0; s < tab.N(); s++ {
			if tab.Get(s) != nil {
				t.Errorf("stored row at slot %d survived the cold rebuild", s)
			}
		}
	}
	for _, routes := range [][]RouteEntry{q.routes, f.routes} {
		for s, e := range routes {
			if e.Source != SourceNone {
				t.Errorf("route to slot %d survived the cold rebuild: %+v", s, e)
			}
		}
	}
	if silenceSenders(q) != 0 || len(q.pairCache) != 0 || len(q.selfPairCache) != 0 || len(q.failovers) != 0 {
		t.Errorf("quorum slot-keyed state survived: rec=%d pairs=%d self=%d failovers=%d",
			silenceSenders(q), len(q.pairCache), len(q.selfPairCache), len(q.failovers))
	}
	if f.lastValid {
		t.Error("fullmesh kept its incremental snapshot across a cold rebuild")
	}
}
