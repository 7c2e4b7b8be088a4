// Package membership implements the paper's centralized membership service
// (§5): a coordinator that admits nodes, assigns 2-byte IDs, and broadcasts
// versioned views, plus the client run by every overlay node.
//
// The correctness of the quorum routing computation depends only on view
// consistency: nodes holding the same view version build identical grids,
// because the grid is populated from the view's slot assignment. Slot-
// addressed views pin each member to a stable slot for its lifetime and
// tombstone departures, so one join or leave perturbs O(1) grid
// relationships. Transient failures are handled by the overlay's failover
// machinery, not by membership churn, so the coordinator uses the paper's
// long (30-minute) membership timeout.
package membership

import (
	"fmt"
	"sort"
	"time"

	"allpairs/internal/wire"
)

// CoordinatorID is the well-known overlay ID of the membership coordinator
// (the rank-0 primary in a replicated set). It is outside the range ever
// assigned to members.
const CoordinatorID wire.NodeID = 0xFFFE

// CoordinatorIDAt returns the well-known ID of the coordinator replica at a
// given rank: IDs descend from CoordinatorID (0xFFFE, 0xFFFD, ...), leaving
// wire.NilNode untouched and staying far above any assigned member ID.
func CoordinatorIDAt(rank int) wire.NodeID { return CoordinatorID - wire.NodeID(rank) }

// CoordinatorIDs returns the well-known IDs of an n-replica coordinator set
// in rank order.
func CoordinatorIDs(n int) []wire.NodeID {
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = CoordinatorIDAt(i)
	}
	return ids
}

// Default protocol intervals.
const (
	// DefaultTimeout is the membership expiry from §5 (30 minutes).
	DefaultTimeout = 30 * time.Minute
	// DefaultHeartbeat keeps live members refreshed well inside the timeout.
	DefaultHeartbeat = 5 * time.Minute
	// DefaultSweep is how often the coordinator scans for expired members.
	DefaultSweep = time.Minute
	// DefaultJoinRetry is the client's re-join interval until admitted.
	DefaultJoinRetry = 5 * time.Second
	// DefaultCoalesce is how long the coordinator batches membership changes
	// before broadcasting one delta. Join storms landing inside a window cost
	// O(n + k) messages instead of O(n·k).
	DefaultCoalesce = time.Second
)

// ViewInfo is the client-side digest of a membership view: the slot-indexed
// member assignment used to populate the routing grid, plus the occupied
// member list and the ID → slot index.
//
// Every view is slot-addressed: each member holds the slot it keeps for its
// lifetime, and departed slots are tombstones (ID == wire.NilNode) that stay
// in place until the coordinator's quarantine reuses them, so one join or
// leave moves O(1) assignments. Static views (NewStaticView) use the
// identity layout — sorted ID i at slot i, the paper's §5 row-major fill.
type ViewInfo struct {
	epoch   uint32
	version uint32
	slots   []wire.Member // slot-indexed; tombstones hold ID == wire.NilNode
	members []wire.Member // occupied members in slot order
	// index maps ID → slot: an open-addressed table with linear probing,
	// sized by the slot space (a power of two of at least 2·Slots entries,
	// so a probe meets an empty entry within a few steps). Each entry packs
	// (ID+1)<<16 | slot; 0 is empty. wire.NilNode (0xFFFF) is never stored,
	// so ID+1 fits in 16 bits, and slots are 16-bit on the wire. A dense
	// array indexed by ID would cost 128–256 KB per view: member IDs only
	// grow under churn, and coordinator IDs sit at 0xFFFx.
	index []uint32
	shift uint8 // 32 − log2(len(index)), the hash's right shift
}

// NewViewInfo builds a ViewInfo from a raw wire view. Member slots are taken
// from the wire; duplicate slots or IDs, nil IDs, and slots outside the
// view's Slots are rejected, as is a view that carries members but no slot
// space (Slots == 0).
func NewViewInfo(v wire.View) (*ViewInfo, error) {
	if v.Slots == 0 && len(v.Members) > 0 {
		return nil, fmt.Errorf("membership: view %d has %d members but no slot space", v.Version, len(v.Members))
	}
	slots := make([]wire.Member, v.Slots)
	for i := range slots {
		slots[i].ID = wire.NilNode
	}
	for _, m := range v.Members {
		if m.ID == wire.NilNode {
			return nil, fmt.Errorf("membership: nil member ID in view %d", v.Version)
		}
		s := int(m.Slot)
		if s >= len(slots) {
			return nil, fmt.Errorf("membership: member %d slot %d outside %d-slot view %d", m.ID, s, v.Slots, v.Version)
		}
		if slots[s].ID != wire.NilNode {
			return nil, fmt.Errorf("membership: duplicate slot %d in view %d", s, v.Version)
		}
		slots[s] = m
	}
	return newView(v.Epoch, v.Version, slots)
}

// newView builds a ViewInfo from a slot-indexed member array (tombstones
// hold wire.NilNode). Duplicate member IDs are rejected.
func newView(epoch, version uint32, slots []wire.Member) (*ViewInfo, error) {
	size, shift := 1, uint8(32)
	for size < 2*len(slots) {
		size <<= 1
		shift--
	}
	index := make([]uint32, size)
	members := make([]wire.Member, 0, len(slots))
	for s, m := range slots {
		if m.ID == wire.NilNode {
			continue
		}
		i, dup := find(index, shift, m.ID)
		if dup {
			return nil, fmt.Errorf("membership: duplicate ID %d in view %d", m.ID, version)
		}
		index[i] = (uint32(m.ID)+1)<<16 | uint32(s)
		members = append(members, m)
	}
	return &ViewInfo{epoch: epoch, version: version, slots: slots, members: members, index: index, shift: shift}, nil
}

// NewStaticView builds a ViewInfo directly from node IDs, for emulations and
// tests that skip the join protocol: sorted ID i occupies slot i, with no
// tombstones. Version is 1.
func NewStaticView(ids []wire.NodeID) *ViewInfo {
	sorted := append([]wire.NodeID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ms := make([]wire.Member, len(sorted))
	for i, id := range sorted {
		ms[i] = wire.Member{ID: id, Slot: uint16(i)}
	}
	vi, err := NewViewInfo(wire.View{Epoch: 1, Version: 1, Slots: uint16(len(ms)), Members: ms})
	if err != nil {
		panic(err) // duplicate IDs in a static view are a programming error
	}
	return vi
}

// VersionNum returns the view's version number. Versions are unique across
// coordinator reigns (promotions skip the version counter far past anything
// the deposed primary can have broadcast), so the routing plane keys its
// row exchange on the version alone.
func (v *ViewInfo) VersionNum() uint32 { return v.version }

// Stamp returns the view's (epoch, version) stamp.
func (v *ViewInfo) Stamp() wire.ViewStamp {
	return wire.ViewStamp{Epoch: v.epoch, Version: v.version}
}

// N returns the number of members.
func (v *ViewInfo) N() int { return len(v.members) }

// Slots returns the size of the slot space — the bound every slot-indexed
// loop and table must use. It counts tombstones, so it is at least N().
func (v *ViewInfo) Slots() int { return len(v.slots) }

// Occupied reports whether a slot holds a live member (false for
// tombstones).
func (v *ViewInfo) Occupied(slot int) bool { return v.slots[slot].ID != wire.NilNode }

// Members returns the occupied members in slot order. Callers must not
// modify the returned slice.
func (v *ViewInfo) Members() []wire.Member { return v.members }

// IDAt returns the member ID occupying a grid slot, or wire.NilNode for a
// tombstone.
func (v *ViewInfo) IDAt(slot int) wire.NodeID { return v.slots[slot].ID }

// SlotOf returns the grid slot of a member ID; false for wire.NilNode and
// for IDs not in the view.
//
//lint:allocfree
func (v *ViewInfo) SlotOf(id wire.NodeID) (int, bool) {
	i, ok := find(v.index, v.shift, id)
	if !ok {
		return 0, false
	}
	return int(v.index[i] & 0xFFFF), true
}

// find probes index for id: the position of its entry and true, or the
// empty position where it would go and false. The index always holds an
// empty entry, so the probe ends. wire.NilNode is never found: its key,
// 0xFFFF+1, does not fit an entry's 16-bit ID field.
//
//lint:allocfree
func find(index []uint32, shift uint8, id wire.NodeID) (uint32, bool) {
	key := uint32(id) + 1
	mask := uint32(len(index) - 1)
	// The first probe is the ID's Fibonacci hash: the top log2(len(index))
	// bits of ID × 2³²/φ.
	for i := uint32(id) * 0x9E3779B1 >> shift; ; i = (i + 1) & mask {
		switch index[i] >> 16 {
		case 0:
			return i, false
		case key:
			return i, true
		}
	}
}

// OccupiedMask returns the per-slot occupancy of the view, or nil when every
// slot is occupied (the form grid.NewMasked treats as the unmasked grid).
func (v *ViewInfo) OccupiedMask() []bool {
	if len(v.members) == len(v.slots) {
		return nil
	}
	mask := make([]bool, len(v.slots))
	for s, m := range v.slots {
		mask[s] = m.ID != wire.NilNode
	}
	return mask
}

// StableExtension reports whether a view consumer — the member self — can
// install next over old in place: every other member present in both views
// keeps its slot, and the slot space does not shrink. self itself may have
// moved (its own re-admission at a new slot); the consumer retires its old
// slot like any departure. A slot whose occupant changed (quarantine-expired
// reuse) is still stable; the consumer retires just that slot. Anything else
// — no old view, or a survivor that moved — must be installed cold.
func StableExtension(old, next *ViewInfo, self wire.NodeID) bool {
	if old == nil || next.Slots() < old.Slots() {
		return false
	}
	for s, m := range old.slots {
		if m.ID == wire.NilNode || m.ID == self {
			continue
		}
		if ns, ok := next.SlotOf(m.ID); ok && ns != s {
			return false
		}
	}
	return true
}

// ApplyDelta builds the ViewInfo that results from applying a wire delta to
// v. It fails if the delta's base version does not match v's version (the
// caller must then request a full view), if a removed ID is unknown, or if
// an added ID already exists. The delta is applied in place in the slot
// space: removals tombstone their slot and additions land at the slot the
// coordinator assigned (an occupied target slot is an error).
func (v *ViewInfo) ApplyDelta(d wire.ViewDelta) (*ViewInfo, error) {
	if v.epoch != d.Epoch || v.version != d.BaseVersion {
		return nil, fmt.Errorf("membership: delta base %d/%d does not match view %d/%d",
			d.Epoch, d.BaseVersion, v.epoch, v.version)
	}
	slots := append([]wire.Member(nil), v.slots...)
	for _, id := range d.Removes {
		s, ok := v.SlotOf(id)
		if !ok {
			return nil, fmt.Errorf("membership: delta removes unknown ID %d", id)
		}
		slots[s] = wire.Member{ID: wire.NilNode}
	}
	for _, m := range d.Adds {
		s := int(m.Slot)
		for len(slots) <= s {
			slots = append(slots, wire.Member{ID: wire.NilNode})
		}
		if slots[s].ID != wire.NilNode {
			return nil, fmt.Errorf("membership: delta adds %d to occupied slot %d", m.ID, s)
		}
		slots[s] = m
	}
	return newView(d.Epoch, d.Version, slots)
}
