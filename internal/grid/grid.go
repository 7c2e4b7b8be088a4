// Package grid implements the grid quorum construction at the heart of the
// paper's routing algorithm (§3).
//
// The n overlay nodes are laid out row-major in a near-square grid. A node's
// rendezvous servers are all the other nodes in its row and column, so any
// two nodes share at least one — normally two — rendezvous servers (the two
// "corners" of the rectangle their positions span). This is what lets a
// two-round protocol find every optimal one-hop route with only O(√n)
// messages per node per round.
//
// Non-perfect squares are handled exactly as in the paper: with
// a = √n − ⌊√n⌋, the grid is ⌈√n⌉×⌊√n⌋ when a < 0.5 and ⌈√n⌉×⌈√n⌉
// otherwise, leaving blanks only in the last row. Nodes whose column ends in
// a blank are given one bottom-row node as an extra rendezvous server (and
// vice versa), restoring the two-server intersection property without
// doubling any node's load.
//
// The package works on grid slots (integers 0..n-1). Mapping slots to node
// IDs — by filling the grid from the sorted member list — is the membership
// layer's job, which keeps this package a pure, exhaustively testable
// construction.
package grid

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Grid is an immutable quorum layout for n nodes. All methods are safe for
// concurrent use.
type Grid struct {
	n       int
	rows    int
	cols    int
	lastRow int // number of occupied slots in the final row

	// occupied is the per-slot liveness mask of a masked grid (NewMasked),
	// or nil for the dense construction where every slot holds a node.
	occupied []bool

	// sets holds every slot's sorted rendezvous server set (its row and
	// column, plus blank-compensation extras; never the slot itself) in one
	// block: the first n+1 entries are offsets, and slot i's set is
	// sets[sets[i]:sets[i+1]].
	sets []int

	// On a masked grid (Remask), sets holds only the slots in some
	// tombstone's blast radius, those with own[i]; every other slot shares
	// the set of the dense grid it was derived from, dense.
	dense *Grid
	own   []bool
}

// New constructs the grid quorum for n ≥ 1 nodes.
func New(n int) (*Grid, error) {
	if n < 1 {
		return nil, fmt.Errorf("grid: need at least 1 node, got %d", n)
	}
	root := math.Sqrt(float64(n))
	floor := int(math.Floor(root))
	ceil := int(math.Ceil(root))
	// Guard against floating-point error on perfect squares.
	if floor*floor == n {
		ceil = floor
	} else if ceil == floor {
		ceil = floor + 1
	}

	g := &Grid{n: n}
	if root-float64(floor) < 0.5 {
		g.rows, g.cols = ceil, floor
	} else {
		g.rows, g.cols = ceil, ceil
	}
	if g.cols == 0 {
		g.cols = 1
	}
	if g.rows*g.cols < n {
		// Cannot happen for the construction above; guard regardless.
		return nil, fmt.Errorf("grid: internal error, %dx%d < %d", g.rows, g.cols, n)
	}
	g.lastRow = n - (g.rows-1)*g.cols
	if g.lastRow <= 0 {
		return nil, fmt.Errorf("grid: internal error, empty last row for n=%d", n)
	}

	size := n + 1
	for s := 0; s < n; s++ {
		size += g.serversLen(s)
	}
	g.sets = make([]int, n+1, size)
	g.sets[0] = n + 1
	for s := 0; s < n; s++ {
		g.sets = g.appendServers(g.sets, s)
		g.sets[s+1] = len(g.sets)
	}
	return g, nil
}

// serversLen is the size of slot's dense server set: its column and row
// mates plus its blank-compensation extras.
func (g *Grid) serversLen(slot int) int {
	r, c := slot/g.cols, slot%g.cols
	k, last := g.lastRow, g.rows-1
	colLen, rowLen := g.rows, g.cols
	if c >= k {
		colLen--
	}
	if r == last {
		rowLen = k
	}
	l := colLen - 1 + rowLen - 1
	if k < g.cols {
		if r == last {
			l += g.cols - k
		} else if c >= k && r < k {
			l++
		}
	}
	return l
}

// appendServers appends slot's dense server set to dst in ascending order,
// which the row-major layout gives without sorting: the column mates above
// the slot, its row mates, the column mates below. Blank compensation (§3,
// "Non perfect-square grids"), 0-indexed: with k occupied slots in the last
// row, the bottom-row slot in column c < k is paired with row c's tail
// (c, j) for k ≤ j < cols, which sorts right after its column mate in row
// c; a tail-column slot in row r < k gets the bottom-row slot (rows−1, r),
// which sorts last.
func (g *Grid) appendServers(dst []int, slot int) []int {
	r, c := slot/g.cols, slot%g.cols
	k, last := g.lastRow, g.rows-1
	tail := k < g.cols
	for rr := 0; rr < r; rr++ {
		dst = append(dst, rr*g.cols+c)
		if tail && r == last && rr == c {
			for j := k; j < g.cols; j++ {
				dst = append(dst, c*g.cols+j)
			}
		}
	}
	rowLen, colLen := g.cols, g.rows
	if r == last {
		rowLen = k
	}
	if c >= k {
		colLen--
	}
	for cc := 0; cc < rowLen; cc++ {
		if cc != c {
			dst = append(dst, r*g.cols+cc)
		}
	}
	for rr := r + 1; rr < colLen; rr++ {
		dst = append(dst, rr*g.cols+c)
	}
	if tail && c >= k && r < k {
		dst = append(dst, last*g.cols+r)
	}
	return dst
}

// NewMasked constructs the grid quorum over an n-slot space in which only
// the slots with occupied[s] == true hold live nodes; the rest are
// tombstones left behind by departed members. A nil mask (or one with every
// slot true) yields exactly New(n), so dense views pay nothing.
//
// The layout (rows, columns, blank compensation) is computed over the full
// n-slot space — slot positions never move when the mask changes, so a
// tombstone perturbs only its own blast radius. Tombstoned rendezvous
// servers are patched by deputy substitution: a dead server that a node
// relied on to reach a column is replaced by that column's first occupied
// slot, and one relied on to reach a row by that row's first occupied slot.
// The substitute lands inside the column (row) that the other endpoint of
// every affected pair already serves, so any occupied pair whose corner died
// still shares at least one rendezvous. The relation is symmetrized, so
// R_i = C_i continues to hold. Tombstoned slots have empty server sets.
func NewMasked(n int, occupied []bool) (*Grid, error) {
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	return g.Remask(occupied)
}

// Remask derives a masked grid from a dense one without rebuilding it: only
// the slots a tombstone can have perturbed — the dead slot's row, column,
// blank-compensation partners, and line deputies — get fresh server sets,
// written in slot order into one block as New writes its own; every other
// slot shares the dense grid's set. The cost is linear in the size of the
// fresh sets. The receiver must be dense (Remask of a Remask would compound
// substitutions); a nil or all-true mask returns the receiver unchanged.
func (g *Grid) Remask(occupied []bool) (*Grid, error) {
	if g.occupied != nil {
		return nil, fmt.Errorf("grid: Remask requires a dense grid")
	}
	if occupied == nil {
		return g, nil
	}
	if len(occupied) != g.n {
		return nil, fmt.Errorf("grid: mask length %d != %d slots", len(occupied), g.n)
	}
	if !slices.Contains(occupied, false) {
		return g, nil
	}
	// Deputies: the first occupied slot of each column and row, or -1 when a
	// whole line is tombstoned (then the §4.2 link-state fallback carries any
	// residual pair at runtime).
	colDep := make([]int, g.cols)
	for c := range colDep {
		colDep[c] = -1
		for r := 0; r < g.rows; r++ {
			if s, ok := g.SlotAt(r, c); ok && occupied[s] {
				colDep[c] = s
				break
			}
		}
	}
	rowDep := make([]int, g.rows)
	for r := range rowDep {
		rowDep[r] = -1
		for c := 0; c < g.cols; c++ {
			if s, ok := g.SlotAt(r, c); ok && occupied[s] {
				rowDep[r] = s
				break
			}
		}
	}
	// Touched slots: the only ones whose server sets can differ from the
	// dense grid's. Every substitution an occupied slot performs targets the
	// deputy of a dead slot's line, and every slot performing one sits in a
	// dead slot's row/column or is its compensation partner — so rebuilding
	// exactly these reproduces the full construction.
	touched := make([]bool, g.n)
	for d, o := range occupied {
		if o {
			continue
		}
		touched[d] = true
		for _, s := range g.Servers(d) {
			touched[s] = true
		}
		r, c := g.Position(d)
		if s := colDep[c]; s >= 0 {
			touched[s] = true
		}
		if s := rowDep[r]; s >= 0 {
			touched[s] = true
		}
	}
	// A touched slot x's masked set is the union of
	//   - its occupied dense partners,
	//   - the deputies it substitutes for its dead partners, and
	//   - the slots whose substitutions name x (only deputies have any),
	// the last two making the relation symmetric. The reverse substitutions
	// are bucketed by deputy with a counting sort over the touched slots in
	// ascending order, so each bucket comes out sorted: rev[t]..rev[t+1]
	// bounds deputy t's bucket in revList.
	rev := make([]int, g.n+2)
	g.eachSubstitution(occupied, touched, colDep, rowDep, func(y, t int) { rev[t+2]++ })
	for i := 2; i < len(rev); i++ {
		rev[i] += rev[i-1]
	}
	revList := make([]int, rev[g.n+1])
	g.eachSubstitution(occupied, touched, colDep, rowDep, func(y, t int) {
		revList[rev[t+1]] = y
		rev[t+1]++
	})
	// Every dead partner yields at most one substitute, so a touched slot's
	// set is at most its dense size plus its reverse bucket; the bound is
	// loose only by coinciding substitutes.
	size := g.n + 1
	for s, o := range occupied {
		if o && touched[s] {
			size += len(g.Servers(s)) + rev[s+1] - rev[s]
		}
	}
	sets := make([]int, g.n+1, size)
	sets[0] = g.n + 1
	var subs []int
	for x, o := range occupied {
		switch {
		case !o, !touched[x]:
			// tombstone (empty server set) or shared with the dense grid
		default:
			subs = subs[:0]
			for _, d := range g.Servers(x) {
				if !occupied[d] {
					if t := g.substitute(x, d, colDep, rowDep); t >= 0 {
						subs = insertSorted(subs, t)
					}
				}
			}
			sets = mergeMasked(sets, x, g.Servers(x), occupied, subs, revList[rev[x]:rev[x+1]])
		}
		sets[x+1] = len(sets)
	}
	return &Grid{
		n:        g.n,
		rows:     g.rows,
		cols:     g.cols,
		lastRow:  g.lastRow,
		occupied: append([]bool(nil), occupied...),
		sets:     sets[:len(sets):len(sets)],
		dense:    g,
		own:      touched,
	}, nil
}

// substitute returns the deputy that stands in for y's dead dense partner d:
// the deputy of d's column when y reaches d along a row (a row mate, or a
// bottom-row slot's tail extra), otherwise the deputy of d's row (a column
// mate, or a tail-column slot's bottom-row extra). It is -1 when that whole
// line is tombstoned.
func (g *Grid) substitute(y, d int, colDep, rowDep []int) int {
	ry, cy := y/g.cols, y%g.cols
	rd, cd := d/g.cols, d%g.cols
	if rd == ry || (cd != cy && ry == g.rows-1) {
		return colDep[cd]
	}
	return rowDep[rd]
}

// eachSubstitution calls f(y, t) for every deputy t that an occupied touched
// slot y substitutes for one of its dead partners, y ascending.
func (g *Grid) eachSubstitution(occupied, touched []bool, colDep, rowDep []int, f func(y, t int)) {
	for y, o := range occupied {
		if !o || !touched[y] {
			continue
		}
		for _, d := range g.Servers(y) {
			if !occupied[d] {
				if t := g.substitute(y, d, colDep, rowDep); t >= 0 {
					f(y, t)
				}
			}
		}
	}
}

// insertSorted inserts v into the ascending list s unless it is present.
func insertSorted(s []int, v int) []int {
	i := len(s)
	for i > 0 && s[i-1] > v {
		i--
	}
	if i > 0 && s[i-1] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// mergeMasked appends slot x's masked server set to dst: the union of its
// occupied dense partners, its substitutes and its reverse substitutions,
// three ascending lists merged without duplicates and without x itself.
func mergeMasked(dst []int, x int, dense []int, occupied []bool, subs, rev []int) []int {
	last := -1
	i, j, k := 0, 0, 0
	for {
		for i < len(dense) && !occupied[dense[i]] {
			i++
		}
		v := -1
		if i < len(dense) {
			v = dense[i]
		}
		if j < len(subs) && (v < 0 || subs[j] < v) {
			v = subs[j]
		}
		if k < len(rev) && (v < 0 || rev[k] < v) {
			v = rev[k]
		}
		if v < 0 {
			return dst
		}
		if i < len(dense) && dense[i] == v {
			i++
		}
		if j < len(subs) && subs[j] == v {
			j++
		}
		for k < len(rev) && rev[k] == v {
			k++
		}
		if v != last && v != x {
			dst = append(dst, v)
			last = v
		}
	}
}

// N returns the number of nodes.
func (g *Grid) N() int { return g.n }

// Rows returns the number of grid rows.
func (g *Grid) Rows() int { return g.rows }

// Cols returns the number of grid columns.
func (g *Grid) Cols() int { return g.cols }

// LastRowLen returns the number of occupied slots in the final row.
func (g *Grid) LastRowLen() int { return g.lastRow }

// IsComplete reports whether the grid has no blank slots.
func (g *Grid) IsComplete() bool { return g.lastRow == g.cols }

// OccupiedSlot reports whether a slot holds a live node. For a dense grid
// (New, or NewMasked with a nil/full mask) every slot is occupied.
func (g *Grid) OccupiedSlot(slot int) bool {
	if slot < 0 || slot >= g.n {
		panic(fmt.Sprintf("grid: slot %d out of range [0,%d)", slot, g.n))
	}
	return g.occupied == nil || g.occupied[slot]
}

// Position returns the (row, col) of a slot. It panics if slot is out of
// range, which always indicates a programming error in the caller.
func (g *Grid) Position(slot int) (row, col int) {
	if slot < 0 || slot >= g.n {
		panic(fmt.Sprintf("grid: slot %d out of range [0,%d)", slot, g.n))
	}
	return slot / g.cols, slot % g.cols
}

// SlotAt returns the slot at (row, col), or ok=false if the position is out
// of range or blank.
func (g *Grid) SlotAt(row, col int) (slot int, ok bool) {
	if row < 0 || row >= g.rows || col < 0 || col >= g.cols {
		return 0, false
	}
	s := row*g.cols + col
	if s >= g.n {
		return 0, false
	}
	return s, true
}

// Servers returns slot's rendezvous server set: every other node in its row
// and column, plus blank-compensation extras. The returned slice is owned by
// the Grid and must not be modified.
func (g *Grid) Servers(slot int) []int {
	if slot < 0 || slot >= g.n {
		panic(fmt.Sprintf("grid: slot %d out of range [0,%d)", slot, g.n))
	}
	if g.dense != nil && !g.own[slot] {
		return g.dense.Servers(slot)
	}
	a, b := g.sets[slot], g.sets[slot+1]
	return g.sets[a:b:b]
}

// Clients returns the slots for which slot acts as a rendezvous server. For
// the grid quorum the relation is symmetric (R_i = C_i, §3), so this equals
// Servers; both names are provided because the routing protocol treats the
// two roles differently.
func (g *Grid) Clients(slot int) []int { return g.Servers(slot) }

// IsServerOf reports whether server ∈ Servers(client).
func (g *Grid) IsServerOf(server, client int) bool {
	ss := g.Servers(client)
	i := sort.SearchInts(ss, server)
	return i < len(ss) && ss[i] == server
}

// Common returns the sorted set of nodes that can act as rendezvous for the
// pair (a, b): nodes in Servers(a) ∩ Servers(b), plus a and/or b themselves
// when one is a server of the other (pairs sharing a row or column rendezvous
// through their endpoints — each receives the other's link state directly).
// For a == b it returns nil. The two-intersection property guarantees
// len ≥ 2 for all pairs when n ≥ 4.
func (g *Grid) Common(a, b int) []int { return g.AppendCommon(nil, a, b) }

// AppendCommon appends Common(a, b) to dst and returns the extended slice.
// It merges the two sorted server sets and places the endpoints in order as
// it goes, so it allocates only if dst must grow.
func (g *Grid) AppendCommon(dst []int, a, b int) []int {
	if a == b {
		return dst
	}
	sa, sb := g.Servers(a), g.Servers(b)
	ends := [2]int{min(a, b), max(a, b)}
	e := 0 // endpoints already placed; both count as placed unless they rendezvous
	if !g.IsServerOf(b, a) {
		e = len(ends)
	}
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] < sb[j]:
			i++
		case sa[i] > sb[j]:
			j++
		default:
			for ; e < len(ends) && ends[e] < sa[i]; e++ {
				dst = append(dst, ends[e])
			}
			dst = append(dst, sa[i])
			i++
			j++
		}
	}
	for ; e < len(ends); e++ {
		dst = append(dst, ends[e])
	}
	return dst
}

// FailoverCandidates returns the slots a node may recruit as failover
// rendezvous servers for destination dst: all other nodes in dst's row and
// column (§4.1's 2√n candidate set). The caller filters by reachability. The
// returned slice is owned by the Grid and must not be modified (it is dst's
// server set, which by construction is exactly dst's row-column set).
func (g *Grid) FailoverCandidates(dst int) []int { return g.Servers(dst) }

// MaxLoad returns the maximum rendezvous set size over all slots. The paper
// shows this is at most 2√n even with blank compensation.
func (g *Grid) MaxLoad() int {
	m := 0
	for s := 0; s < g.n; s++ {
		m = max(m, len(g.Servers(s)))
	}
	return m
}

// VerifyInvariants exhaustively checks the construction's guarantees and
// returns a descriptive error on the first violation. Intended for tests and
// the experiments harness; cost is O(n²·√n).
//
// For a masked grid the checks cover the occupied slots: the rendezvous
// relation must stay symmetric, never name a tombstone, and every occupied
// pair must share at least one rendezvous (deputy substitution cannot
// promise two); the load bound is relaxed in proportion to the tombstone
// count, since a deputy inherits the pairs of the slots it stands in for.
func (g *Grid) VerifyInvariants() error {
	dead := 0
	for i := 0; i < g.n; i++ {
		if !g.OccupiedSlot(i) {
			dead++
		}
	}
	// Symmetry: j ∈ Servers(i) ⟺ i ∈ Servers(j); tombstones serve no one.
	for i := 0; i < g.n; i++ {
		if !g.OccupiedSlot(i) {
			if len(g.Servers(i)) != 0 {
				return fmt.Errorf("grid: tombstoned slot %d has %d servers", i, len(g.Servers(i)))
			}
			continue
		}
		for _, j := range g.Servers(i) {
			if !g.OccupiedSlot(j) {
				return fmt.Errorf("grid: slot %d names tombstoned server %d", i, j)
			}
			if !g.IsServerOf(i, j) {
				return fmt.Errorf("grid: asymmetric rendezvous relation %d->%d", i, j)
			}
		}
	}
	// Pair coverage: every occupied pair shares a rendezvous; a dense grid
	// with n ≥ 4 shares two.
	for i := 0; i < g.n; i++ {
		if !g.OccupiedSlot(i) {
			continue
		}
		for j := i + 1; j < g.n; j++ {
			if !g.OccupiedSlot(j) {
				continue
			}
			c := g.Common(i, j)
			if len(c) == 0 {
				return fmt.Errorf("grid: pair (%d,%d) has no common rendezvous", i, j)
			}
			if dead == 0 && g.n >= 4 && len(c) < 2 {
				return fmt.Errorf("grid: pair (%d,%d) has only %d common rendezvous", i, j, len(c))
			}
		}
	}
	// Load bound: |R_i| ≤ 2·⌈√n⌉ (paper: at most 2√n clients and servers).
	// Each tombstone can push its row's and column's pairs onto a deputy, so
	// the masked bound grows by one line per tombstone.
	bound := (2 + dead) * int(math.Ceil(math.Sqrt(float64(g.n))))
	if m := g.MaxLoad(); m > bound {
		return fmt.Errorf("grid: max rendezvous load %d exceeds (2+dead)·⌈√n⌉ = %d", m, bound)
	}
	return nil
}
