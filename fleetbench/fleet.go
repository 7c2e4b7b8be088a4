package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/membership"
	"allpairs/internal/overlay"
	"allpairs/internal/simnet"
	"allpairs/internal/traces"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// Membership timings shared by every workload: churn-scale leases instead of
// the paper's 30-minute default, so departures expire within the run.
const (
	heartbeat    = 30 * time.Second
	joinRetry    = 2 * time.Second
	leaseTimeout = 2 * time.Minute
	sweepEvery   = 15 * time.Second
	coalesce     = time.Second
	coordLatency = 10 * time.Millisecond // member↔coordinator and replica↔replica, one way
	// topologySeed fixes the PlanetLab-like testbed — site placement,
	// latencies, per-link loss and failure rates — across runs, as the
	// paper's evaluation used one testbed. The run's seed drives everything
	// that happens on it: the failure schedule, node randomness, traffic and
	// churn.
	topologySeed = 1
)

// traffic counts bytes (payload plus wire.PerPacketOverhead) over the
// member endpoints, per category and direction.
type traffic struct {
	bytes [wire.NumCategories][2]uint64 // [cat][0=out, 1=in]
}

func (t *traffic) kbps(cats []wire.Category, nodes int, over time.Duration) float64 {
	var sum uint64
	for _, c := range cats {
		sum += t.bytes[c][0] + t.bytes[c][1]
	}
	return float64(sum) * 8 / 1000 / over.Seconds() / float64(nodes)
}

// fleet is one simulated overlay: the network, the coordinator replicas and
// the members, assembled from the program's public constructors the way
// cmd/overlayd and cmd/coordinator assemble a real deployment. Members join
// through the live coordinator. With a tracer, every node's Env is wrapped
// by the tracing decorator; without one, nodes run on plain SimEnvs.
type fleet struct {
	w    workload
	seed int64
	maxN int
	net  *simnet.Network
	reg  *transport.Registry
	topo *traces.Env
	tr   *tracer

	coordIDs   []wire.NodeID
	coordAddrs []netip.AddrPort
	coords     []*membership.Coordinator

	nodes     []*overlay.Node
	envs      []transport.Env
	spawnedAt []time.Duration
	active    []bool
	next      int
	salt      int64

	installs uint64 // OnViewChange calls over all members
	bw       traffic
	dataDups uint64 // fault-plane duplicates of data datagrams

	// onData receives every datagram delivered to a member application.
	onData func(ep int, origin wire.NodeID, payload []byte)
}

// newFleet builds the network sized for a run of the given total virtual
// length, starts the coordinators and spawns the initial members. tr may be
// nil.
func newFleet(w workload, seed int64, total time.Duration, tr *tracer) *fleet {
	maxN := w.n
	if w.churnPerMin > 0 {
		maxN += int(total/w.churnEvery()) + 1 // every departure spawns a joiner
	}
	var topo *traces.Env
	if w.planetLab {
		topo = traces.PlanetLab(maxN, topologySeed)
	} else {
		topo = traces.Generate(maxN, topologySeed, traces.Config{BadNodeFrac: 0.0001})
	}
	nc := w.coords
	nw := simnet.New(maxN+nc, seed)
	for a := 0; a < maxN; a++ {
		for r := 0; r < nc; r++ {
			nw.SetLatency(a, maxN+r, coordLatency)
		}
		for b := a + 1; b < maxN; b++ {
			nw.SetLatency(a, b, time.Duration(topo.LatencyMS[a][b]/2*float64(time.Millisecond)))
			if w.planetLab {
				nw.SetLoss(a, b, topo.Loss[a][b])
			} else {
				nw.SetLoss(a, b, w.loss)
				nw.SetDuplication(a, b, w.dup)
				nw.SetJitter(a, b, w.jitter)
			}
		}
	}
	for r1 := 0; r1 < nc; r1++ {
		for r2 := r1 + 1; r2 < nc; r2++ {
			nw.SetLatency(maxN+r1, maxN+r2, coordLatency)
		}
	}
	if w.planetLab {
		for _, ev := range topo.FailureSchedule(total, seed) {
			ev := ev
			nw.After(ev.At, func() { nw.SetLinkDown(ev.A, ev.B, ev.Down) })
		}
	}

	f := &fleet{
		w: w, seed: seed, maxN: maxN, net: nw, reg: transport.NewRegistry(), topo: topo, tr: tr,
		coordIDs:   membership.CoordinatorIDs(nc),
		coordAddrs: make([]netip.AddrPort, nc),
		coords:     make([]*membership.Coordinator, nc),
		nodes:      make([]*overlay.Node, maxN),
		envs:       make([]transport.Env, maxN),
		spawnedAt:  make([]time.Duration, maxN),
		active:     make([]bool, maxN),
	}
	nw.OnSend = func(from, to int, p []byte) {
		if from < maxN {
			f.bw.bytes[wire.CategoryOf(wire.PeekType(p))][0] += uint64(len(p) + wire.PerPacketOverhead)
		}
	}
	nw.OnDeliver = func(from, to int, p []byte) {
		if to < maxN {
			f.bw.bytes[wire.CategoryOf(wire.PeekType(p))][1] += uint64(len(p) + wire.PerPacketOverhead)
		}
	}
	nw.OnDup = func(from, to int, p []byte) {
		if wire.PeekType(p) == wire.TData {
			f.dataDups++
		}
	}

	cenvs := make([]transport.Env, nc)
	for r := 0; r < nc; r++ {
		sim := transport.NewSimEnv(nw, f.reg, maxN+r, seed*7919+int64(maxN+r))
		f.coordAddrs[r] = sim.LocalAddr()
		cenvs[r] = f.wrap(sim, true)
	}
	for r := 0; r < nc; r++ {
		for r2, id := range f.coordIDs {
			if r2 != r {
				cenvs[r].SetPeer(id, f.coordAddrs[r2])
			}
		}
		f.coords[r] = membership.NewCoordinator(cenvs[r], membership.CoordinatorConfig{
			Timeout:      leaseTimeout,
			Sweep:        sweepEvery,
			Coalesce:     coalesce,
			Coordinators: f.coordIDs,
			Rank:         r,
		})
	}
	for _, c := range f.coords {
		c.Start()
	}
	for i := 0; i < w.n; i++ {
		if _, err := f.spawn(); err != nil {
			panic(err) // maxN ≥ n by construction
		}
	}
	return f
}

func (f *fleet) wrap(sim *transport.SimEnv, coord bool) transport.Env {
	if f.tr == nil {
		return sim
	}
	return &tracedEnv{Env: sim, t: f.tr, coord: coord}
}

// config returns the node configuration: the paper's parameters, plus under
// churn the churn harness's degraded-mode route hold (expired routes are
// served damped for 10 routing intervals instead of blanking). The probe
// ramp-up for joiners stays off everywhere: it targets joins at n ≥ 1000,
// and at n = 300 it would triple the warm-up.
func (f *fleet) config() overlay.Config {
	cfg := overlay.Config{
		Algorithm: f.w.alg,
		Membership: membership.ClientConfig{
			Heartbeat:    heartbeat,
			JoinRetry:    joinRetry,
			Coordinators: f.coordIDs,
		},
	}
	if f.w.churnPerMin > 0 {
		cfg.Quorum = core.QuorumConfig{DegradedHold: 10 * 15 * time.Second}
		cfg.FullMesh = core.FullMeshConfig{DegradedHold: 10 * 30 * time.Second}
	}
	return cfg
}

// spawn starts a fresh member on the next unused endpoint and begins its
// join. Endpoints are never reused, so a departed member's ID cannot be
// resurrected by a joiner at the same address.
func (f *fleet) spawn() (int, error) {
	if f.next >= f.maxN {
		return -1, fmt.Errorf("endpoint capacity %d exhausted", f.maxN)
	}
	ep := f.next
	f.next++
	f.salt++
	sim := transport.NewSimEnv(f.net, f.reg, ep, f.seed*7919+int64(ep)+f.salt*104729)
	env := f.wrap(sim, false)
	for r, id := range f.coordIDs {
		env.SetPeer(id, f.coordAddrs[r])
	}
	node := overlay.New(env, f.config())
	if te, ok := env.(*tracedEnv); ok {
		te.node = node
	}
	node.OnViewChange = func(*membership.ViewInfo, int) {
		f.installs++
		if f.tr != nil {
			f.tr.installed = true
		}
	}
	node.OnData = func(origin wire.NodeID, payload []byte) {
		if f.onData != nil {
			f.onData(ep, origin, payload)
		}
	}
	if err := node.Start(); err != nil {
		return -1, fmt.Errorf("start node at endpoint %d: %w", ep, err)
	}
	f.nodes[ep] = node
	f.envs[ep] = env
	f.spawnedAt[ep] = f.net.Elapsed()
	f.active[ep] = true
	return ep, nil
}

// depart removes a member: gracefully (Leave announced) or as a crash. The
// endpoint goes dark either way.
func (f *fleet) depart(ep int, graceful bool) {
	if graceful {
		f.nodes[ep].Stop()
	} else {
		f.nodes[ep].Halt()
	}
	f.net.SetNodeDown(ep, true)
	f.active[ep] = false
}

// churnOne departs one random live member — a crash or a graceful leave —
// and spawns a fresh joiner in its place. It returns the departed endpoint.
func (f *fleet) churnOne(rng *rand.Rand, crash bool) (int, error) {
	eps := f.live()
	ep := eps[rng.Intn(len(eps))]
	f.depart(ep, !crash)
	if _, err := f.spawn(); err != nil {
		return -1, err
	}
	return ep, nil
}

// churnEvery is the interval between departures that replaces
// churnPerMin of the members per minute.
func (w workload) churnEvery() time.Duration {
	return time.Duration(float64(time.Minute) / (w.churnPerMin * float64(w.n)))
}

// primary returns the lowest-rank replica that considers itself primary, or
// nil mid-election.
func (f *fleet) primary() *membership.Coordinator {
	for _, c := range f.coords {
		if c.IsPrimary() {
			return c
		}
	}
	return nil
}

// viewsConverged reports whether exactly one replica is primary and every
// member in eps follows it: holds its exact view stamp, or with sameEpoch
// only a stamp of its reign. Under ongoing churn exact stamps are rarely
// all equal, so a failover is complete once every member has moved to the
// new primary's epoch.
func (f *fleet) viewsConverged(eps []int, sameEpoch bool) bool {
	var prim *membership.Coordinator
	for _, c := range f.coords {
		if c.IsPrimary() {
			if prim != nil {
				return false
			}
			prim = c
		}
	}
	if prim == nil {
		return false
	}
	want := prim.Stamp()
	for _, ep := range eps {
		got := f.nodes[ep].View().Stamp()
		if got != want && (!sameEpoch || got.Epoch != want.Epoch) {
			return false
		}
	}
	return true
}

// live returns the members that are up and hold a view.
func (f *fleet) live() []int {
	var out []int
	for ep := 0; ep < f.next; ep++ {
		if f.active[ep] && f.nodes[ep].Ready() {
			out = append(out, ep)
		}
	}
	return out
}

// settled returns the live members route quality and traffic are measured
// over: the initial members, whose convergence the warm-up checked, and
// later joiners once they are as old as the workload's warm-up — a probe
// interval plus two routing intervals.
func (f *fleet) settled() []int {
	cutoff := f.net.Elapsed() - f.w.warmup
	var out []int
	for _, ep := range f.live() {
		if f.spawnedAt[ep] == 0 || f.spawnedAt[ep] <= cutoff {
			out = append(out, ep)
		}
	}
	return out
}
