package membership

import (
	"fmt"
	"math/rand"
	"testing"

	"allpairs/internal/wire"
)

// scanSlotOf is the reference ID → slot lookup: a linear scan of the slot
// array.
func scanSlotOf(v *ViewInfo, id wire.NodeID) (int, bool) {
	if id == wire.NilNode {
		return 0, false
	}
	for s, m := range v.slots {
		if m.ID == id {
			return s, true
		}
	}
	return 0, false
}

// scanStableExtension is StableExtension written over scanSlotOf.
func scanStableExtension(old, next *ViewInfo, self wire.NodeID) bool {
	if old == nil || next.Slots() < old.Slots() {
		return false
	}
	for s, m := range old.slots {
		if m.ID == wire.NilNode || m.ID == self {
			continue
		}
		if ns, ok := scanSlotOf(next, m.ID); ok && ns != s {
			return false
		}
	}
	return true
}

// scanApplyDelta is ApplyDelta written over scanSlotOf and a pairwise
// duplicate check: the resulting slot array, or false where ApplyDelta must
// fail.
func scanApplyDelta(v *ViewInfo, d wire.ViewDelta) ([]wire.Member, bool) {
	slots := append([]wire.Member(nil), v.slots...)
	for _, id := range d.Removes {
		s, ok := scanSlotOf(v, id)
		if !ok {
			return nil, false
		}
		slots[s] = wire.Member{ID: wire.NilNode}
	}
	for _, m := range d.Adds {
		for len(slots) <= int(m.Slot) {
			slots = append(slots, wire.Member{ID: wire.NilNode})
		}
		if slots[m.Slot].ID != wire.NilNode {
			return nil, false
		}
		slots[m.Slot] = m
	}
	for i, a := range slots {
		for _, b := range slots[i+1:] {
			if a.ID != wire.NilNode && a.ID == b.ID {
				return nil, false
			}
		}
	}
	return slots, true
}

// idSet draws n distinct member IDs of one of four shapes.
func idSet(rng *rand.Rand, shape string, n int) []wire.NodeID {
	ids := make([]wire.NodeID, 0, n)
	seen := map[wire.NodeID]bool{}
	add := func(id wire.NodeID) {
		if id != wire.NilNode && !seen[id] && len(ids) < n {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	switch shape {
	case "sequential":
		for i := 0; i < n; i++ {
			add(wire.NodeID(i))
		}
	case "offset": // IDs that only grow under churn
		base := rng.Intn(0xF000)
		for i := 0; i < n; i++ {
			add(wire.NodeID(base + i))
		}
	case "edges": // ID 0 and the coordinator IDs next to NilNode
		add(0)
		add(0xFFFE)
		add(0xFFFD)
		fallthrough
	case "random":
		for len(ids) < n {
			add(wire.NodeID(rng.Intn(0xFFFF)))
		}
	}
	if shape != "edges" { // the edge IDs stay first, so the view holds them
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	return ids
}

// randomView places ids into a slot space of at least len(ids) slots, with
// the rest tombstones.
func randomView(t *testing.T, rng *rand.Rand, ids []wire.NodeID, tombstones int) *ViewInfo {
	t.Helper()
	slots := len(ids) + tombstones
	perm := rng.Perm(slots)
	ms := make([]wire.Member, len(ids))
	for i, id := range ids {
		ms[i] = wire.Member{ID: id, Slot: uint16(perm[i])}
	}
	v, err := NewViewInfo(wire.View{Epoch: 1, Version: 1, Slots: uint16(slots), Members: ms})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// indexSizes are slot counts on both sides of every power-of-two boundary
// through 2^11, where the index doubles.
func indexSizes() []int {
	sizes := []int{0}
	for p := 1; p <= 2048; p <<= 1 {
		for _, n := range []int{p - 1, p, p + 1} {
			if n > sizes[len(sizes)-1] {
				sizes = append(sizes, n)
			}
		}
	}
	return sizes
}

// TestSlotIndexMatchesLinearScan holds SlotOf, ApplyDelta and
// StableExtension equal to linear scans of the slot array over random
// slot-addressed views.
func TestSlotIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, shape := range []string{"sequential", "offset", "random", "edges"} {
		for _, n := range indexSizes() {
			if shape == "edges" && n < 3 {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d", shape, n), func(t *testing.T) {
				pool := idSet(rng, shape, n+n/2+3)
				members, others := pool[:n], pool[n:]
				live := n - n/4
				v := randomView(t, rng, members[:live], n-live)
				departed := members[live:]
				checkIndex(t, v, append(append([]wire.NodeID{wire.NilNode}, departed...), others...))
				checkDeltas(t, rng, v, others)
			})
		}
	}
}

// checkIndex compares SlotOf with the linear scan for every member, every
// absent ID, and the edge IDs 0, 0xFFFD and 0xFFFE wherever the view does
// not hold them.
func checkIndex(t *testing.T, v *ViewInfo, absent []wire.NodeID) {
	t.Helper()
	absent = append([]wire.NodeID{0, 0xFFFD, 0xFFFE}, absent...)
	if len(v.index) < 2*v.Slots() || len(v.index)&(len(v.index)-1) != 0 {
		t.Fatalf("index has %d entries for %d slots, want a power of two ≥ 2·slots", len(v.index), v.Slots())
	}
	for s, m := range v.slots {
		if m.ID == wire.NilNode {
			continue
		}
		if got, ok := v.SlotOf(m.ID); !ok || got != s {
			t.Errorf("SlotOf(%d) = %d,%v, want %d", m.ID, got, ok, s)
		}
	}
	for _, id := range absent {
		if _, ok := scanSlotOf(v, id); ok {
			continue
		}
		if got, ok := v.SlotOf(id); ok {
			t.Errorf("SlotOf(%d) = %d for an ID not in the view", id, got)
		}
	}
}

// checkDeltas applies random deltas — valid ones and each kind of invalid
// one — and compares ApplyDelta, the resulting index and StableExtension
// with the linear-scan references.
func checkDeltas(t *testing.T, rng *rand.Rand, v *ViewInfo, fresh []wire.NodeID) {
	t.Helper()
	present := append([]wire.Member(nil), v.members...)
	var tombs []int
	for s, m := range v.slots {
		if m.ID == wire.NilNode {
			tombs = append(tombs, s)
		}
	}
	for trial := 0; trial < 8; trial++ {
		d := wire.ViewDelta{Epoch: 1, BaseVersion: 1, Version: 2}
		rng.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
		removed := 0
		if len(present) > 0 {
			removed = rng.Intn(min(len(present), 4) + 1)
		}
		for _, m := range present[:removed] {
			d.Removes = append(d.Removes, m.ID)
		}
		slot := v.Slots()
		for i, id := range fresh[:rng.Intn(min(len(fresh), 4)+1)] {
			if i < len(tombs) && rng.Intn(2) == 0 {
				d.Adds = append(d.Adds, wire.Member{ID: id, Slot: uint16(tombs[i])})
				continue
			}
			d.Adds = append(d.Adds, wire.Member{ID: id, Slot: uint16(slot)})
			slot += 1 + rng.Intn(2) // sometimes skip a slot: an appended tombstone
		}
		switch trial % 4 {
		case 1: // remove an ID the view does not hold
			d.Removes = append(d.Removes, fresh[rng.Intn(len(fresh))])
		case 2: // add an ID the view already holds, at a fresh slot
			if removed < len(present) {
				d.Adds = append(d.Adds, wire.Member{ID: present[removed].ID, Slot: uint16(slot)})
			}
		case 3: // add into an occupied slot
			if removed < len(present) {
				d.Adds = append(d.Adds, wire.Member{ID: 0xFFFD, Slot: present[removed].Slot})
			}
		}
		want, ok := scanApplyDelta(v, d)
		next, err := v.ApplyDelta(d)
		if ok != (err == nil) {
			t.Fatalf("delta %+v: ApplyDelta err = %v, linear scan accepts = %v", d, err, ok)
		}
		if !ok {
			continue
		}
		if len(next.slots) != len(want) {
			t.Fatalf("delta %+v: %d slots, want %d", d, len(next.slots), len(want))
		}
		for s := range want {
			if next.slots[s] != want[s] {
				t.Fatalf("delta %+v: slot %d = %+v, want %+v", d, s, next.slots[s], want[s])
			}
		}
		checkIndex(t, next, append(d.Removes, fresh...))
		selves := []wire.NodeID{wire.NilNode}
		if len(d.Removes) > 0 {
			selves = append(selves, d.Removes[0])
		}
		if removed < len(present) {
			selves = append(selves, present[removed].ID)
		}
		for _, self := range selves {
			if got, ref := StableExtension(v, next, self), scanStableExtension(v, next, self); got != ref {
				t.Errorf("StableExtension(self %d) = %v, linear scan %v", self, got, ref)
			}
		}
	}
	// A survivor moved to a fresh slot, and a shrunk slot space: both cold.
	if len(present) > 0 {
		ms := append([]wire.Member(nil), v.members...)
		ms[0].Slot = uint16(v.Slots())
		moved, err := NewViewInfo(wire.View{Epoch: 1, Version: 2, Slots: uint16(v.Slots() + 1), Members: ms})
		if err != nil {
			t.Fatal(err)
		}
		for _, self := range []wire.NodeID{wire.NilNode, ms[0].ID} {
			if got, ref := StableExtension(v, moved, self), scanStableExtension(v, moved, self); got != ref {
				t.Errorf("moved survivor, self %d: StableExtension = %v, linear scan %v", self, got, ref)
			}
		}
	}
	if v.Slots() > 0 && StableExtension(v, NewStaticView(nil), wire.NilNode) {
		t.Error("shrunk slot space reported stable")
	}
}

// TestSlotIndexRejectsDuplicateIDs plants one duplicate ID into views of
// every size and shape; the index must refuse each.
func TestSlotIndexRejectsDuplicateIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, shape := range []string{"sequential", "random", "edges"} {
		for _, n := range indexSizes() {
			if n < 3 {
				continue
			}
			ids := idSet(rng, shape, n-1)
			ids = append(ids, ids[rng.Intn(len(ids))])
			ms := make([]wire.Member, len(ids))
			for i, s := range rng.Perm(n) {
				ms[i] = wire.Member{ID: ids[i], Slot: uint16(s)}
			}
			if _, err := NewViewInfo(wire.View{Epoch: 1, Version: 1, Slots: uint16(n), Members: ms}); err == nil {
				t.Errorf("%s/n=%d: duplicate ID accepted", shape, n)
			}
		}
	}
}

// TestSlotIndexFullIDSpace fills the largest slot space the wire carries
// with every member ID there is, shuffled, and looks each one up: the widest
// IDs and slots an entry packs, in the fullest index there can be.
func TestSlotIndexFullIDSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ms := make([]wire.Member, wire.NilNode)
	for i, s := range rng.Perm(len(ms)) {
		ms[i] = wire.Member{ID: wire.NodeID(i), Slot: uint16(s)}
	}
	v, err := NewViewInfo(wire.View{Epoch: 1, Version: 1, Slots: uint16(len(ms)), Members: ms})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if got, ok := v.SlotOf(m.ID); !ok || got != int(m.Slot) {
			t.Fatalf("SlotOf(%d) = %d,%v, want %d", m.ID, got, ok, m.Slot)
		}
	}
	if _, ok := v.SlotOf(wire.NilNode); ok {
		t.Error("SlotOf(NilNode) found")
	}
}
