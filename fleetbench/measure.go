package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/wire"
)

const (
	drain        = 3 * time.Second  // virtual time after the phase for in-flight datagrams
	convergePoll = time.Second      // view convergence is polled this often
	convergeMax  = 90 * time.Second // churn must converge this soon after the primary crash
	warmupPoll   = 5 * time.Second  // route convergence is checked this often after the minimum warm-up
	warmupSlack  = time.Minute      // warm-up fails this long after the minimum
)

// cost is the process cost of running the simulation for a while. stolen is
// the share of wall the hypervisor gave the machine's CPUs to other guests.
type cost struct {
	cpu, wall, stolen time.Duration
	alloc             uint64
}

func (c *cost) add(o cost) {
	c.cpu += o.cpu
	c.wall += o.wall
	c.stolen += o.stolen
	c.alloc += o.alloc
}

// machineTicks reads the machine's busy and stolen CPU time from /proc/stat,
// in clock ticks summed over its CPUs; both are 0 where it cannot be read.
func machineTicks() (busy, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}

// stolenPart returns the part of wall the hypervisor stole, given machineTicks
// read before and after it: wall times the share of the time the CPUs
// wanted to run that was stolen. CPUs left idle add next to nothing, so a
// single busy thread's share is close to its own.
func stolenPart(wall time.Duration, busy0, steal0, busy1, steal1 uint64) time.Duration {
	if busy1 < busy0 || steal1 <= steal0 {
		return 0
	}
	b, s := busy1-busy0, steal1-steal0
	return time.Duration(float64(wall) * float64(s) / float64(b+s))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntime(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func allocBytes() uint64 { return readRuntime("/gc/heap/allocs:bytes")[0].Value.Uint64() }

// liveHeap is the heap's object bytes; right after a collection, the live heap.
func liveHeap() uint64 { return readRuntime("/memory/classes/heap/objects:bytes")[0].Value.Uint64() }

// runSim advances the simulation to until and returns what that cost the
// process. Everything the benchmark does between calls — sampling, the
// oracle, convergence polls and churn injection — is excluded.
func runSim(f *fleet, until time.Duration) cost {
	b0, s0 := machineTicks()
	c0, a0 := cpuTime(), allocBytes()
	t0 := time.Now()
	f.net.RunUntil(until)
	wall := time.Since(t0)
	c := cost{cpu: cpuTime() - c0, wall: wall, alloc: allocBytes() - a0}
	b1, s1 := machineTicks()
	c.stolen = stolenPart(wall, b0, s0, b1, s1)
	return c
}

// setUp builds a fleet and runs its warm-up until every member has joined,
// holds the primary's view stamp and has a route to every peer, checking
// every warmupPoll from the workload's minimum warm-up on. It returns the
// wall time that took, less its stolen part, and the virtual time at which
// the boot join storm converged.
func setUp(w workload, seed int64, total time.Duration, tr *tracer) (*fleet, time.Duration, time.Duration, error) {
	runtime.GC()
	b0, s0 := machineTicks()
	start := time.Now()
	f := newFleet(w, seed, total, tr)
	joined := time.Duration(-1)
	for t := convergePoll; t <= w.warmup; t += convergePoll {
		f.net.RunUntil(t)
		if eps := f.live(); joined < 0 && len(eps) == w.n && f.viewsConverged(eps, false) {
			joined = t
		}
	}
	err := routesConverged(f)
	for t := w.warmup + warmupPoll; err != nil && t <= w.warmup+warmupSlack; t += warmupPoll {
		f.net.RunUntil(t)
		err = routesConverged(f)
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("warm-up of %s did not converge: %w", w.name, err)
	}
	wall := time.Since(start)
	b1, s1 := machineTicks()
	return f, wall - stolenPart(wall, b0, s0, b1, s1), joined, nil
}

// snapshot holds the cumulative counters the measured phase is the
// difference of.
type snapshot struct {
	bw                         traffic
	netDelivered, netDropped   uint64
	netDuplicated              uint64
	pairsCached, pairsComputed uint64
	fullPasses, incPasses      uint64
	extends, remaps            uint64
	installs                   uint64
	client                     membership.ClientStats
	flushes                    uint64 // coordinator view flushes
	gcCPU                      float64
	gcCycles                   uint64
}

func takeSnapshot(f *fleet) snapshot {
	s := snapshot{
		bw:            f.bw,
		netDelivered:  f.net.Delivered(),
		netDropped:    f.net.Dropped(),
		netDuplicated: f.net.Duplicated(),
		installs:      f.installs,
	}
	for ep := 0; ep < f.next; ep++ {
		n := f.nodes[ep]
		s.client.Add(n.MembershipStats())
		switch r := n.Router().(type) {
		case *core.Quorum:
			st := r.Stats()
			s.pairsCached += st.PairsCached
			s.pairsComputed += st.PairsComputed
			s.extends += st.ViewExtends
			s.remaps += st.ViewRemaps
		case *core.FullMesh:
			full, inc, dsts := r.RecomputeStats()
			s.fullPasses += full
			s.incPasses += inc
			s.pairsComputed += dsts
			ext, rem := r.ViewChangeStats()
			s.extends += ext
			s.remaps += rem
		}
	}
	for _, c := range f.coords {
		s.flushes += c.Stats().Broadcasts
	}
	rt := readRuntime("/cpu/classes/gc/total:cpu-seconds", "/gc/cycles/total:gc-cycles")
	s.gcCPU = rt[0].Value.Float64()
	s.gcCycles = rt[1].Value.Uint64()
	return s
}

// outcome is everything one measured run of a fleet produced.
type outcome struct {
	windows   []cost
	total     cost
	start     time.Duration // virtual time the warm-up converged and the phase began
	span      time.Duration // virtual length of the measured phase
	virtual   virtualMetrics
	before    snapshot
	after     snapshot
	heapBytes uint64
	rowsHeld  float64 // lsdb rows per live member at the end
	concFail  float64 // prober concurrent failures per live member at the end
	tr        *tracer
	errs      []string
}

// virtualMetrics are the run's results in virtual time: a pure function of
// the workload and seed, identical between traced and untraced runs.
type virtualMetrics struct {
	availability, availabilityMin, stretch float64
	attempted, failed, delivered           uint64
	deliveredRatio, p50, p99               float64
	latencySamples                         int
	routingKbps, controlKbps               float64
	convergeS                              float64
	installs                               uint64
}

// measure runs the measured phase on a warmed-up fleet: open-loop data
// traffic, churn and the primary crash where the workload has them, route
// quality samples at every window boundary, and the output checks.
func measure(f *fleet, span time.Duration, joined time.Duration) *outcome {
	w := f.w
	start := f.net.Elapsed()
	o := &outcome{start: start, span: span, tr: f.tr}
	end := start + span
	win := span / time.Duration(w.windows)
	dp := newDataPlane(f, f.seed)
	dp.start(f.settled(), end)
	q := newQuality()
	churnRng := rand.New(rand.NewSource(f.seed*31 + 7))
	if f.tr != nil {
		f.tr.reset()
	}
	// The collector runs off the clock, where allocation alone decides it:
	// the phase starts from a collected heap with automatic collection off,
	// and at a window boundary the benchmark collects once the phase has
	// allocated as much as the live heap, as GOGC=100 would. The runtime's
	// own pacer would place a cycle by timing, in another window in each
	// replay and in or out of the phase from seed to seed; at 0.3–0.4 s a
	// cycle that would swing a run's cost by a tenth. GC cost shows in
	// alloc_bytes_per_node_s, heap_bytes_per_node and gc.*.
	gcPercent := debug.SetGCPercent(-1)
	runtime.GC()
	gcAlloc, gcLive := allocBytes(), liveHeap()
	o.before = takeSnapshot(f)

	var nextChurn, crashAt, poll, crashed time.Duration
	crashNext := true // departures alternate between crash and graceful leave
	if w.churnPerMin > 0 {
		nextChurn = start + w.churnEvery()
	}
	if w.crashWindow > 0 {
		crashAt = start + time.Duration(w.crashWindow)*win
	}
	converge := time.Duration(-1)
	var cur cost
	nextWin := start + win
	for f.net.Elapsed() < end {
		next := min(nextWin, end)
		for _, t := range []time.Duration{nextChurn, crashAt, poll} {
			if t > 0 {
				next = min(next, t)
			}
		}
		c := runSim(f, next)
		cur.add(c)
		o.total.add(c)
		now := f.net.Elapsed()
		if now >= nextWin {
			o.windows = append(o.windows, cur)
			cur = cost{}
			q.sample(f)
			nextWin += win
			if allocBytes()-gcAlloc >= gcLive {
				runtime.GC()
				gcAlloc, gcLive = allocBytes(), liveHeap()
			}
		}
		if crashAt > 0 && now >= crashAt {
			crashAt = 0
			if p := f.primary(); p != nil {
				p.Stop()
			}
			crashed = now
			poll = now + convergePoll
		}
		if poll > 0 && now >= poll {
			if f.viewsConverged(f.settled(), true) {
				converge = now - crashed
				poll = 0
			} else {
				poll += convergePoll
			}
		}
		if nextChurn > 0 && now >= nextChurn {
			ep, err := f.churnOne(churnRng, crashNext)
			if err != nil {
				debug.SetGCPercent(gcPercent)
				o.errs = append(o.errs, err.Error())
				return o
			}
			crashNext = !crashNext
			dp.replace(ep, f.settled())
			nextChurn += w.churnEvery()
		}
	}
	debug.SetGCPercent(gcPercent)
	o.after = takeSnapshot(f)
	if f.tr != nil {
		// The spans and counts end with the phase, like its wall time; the
		// failover follow-up and the drain below run off the clock.
		frozen := *f.tr
		o.tr = &frozen
	}
	o.rowsHeld, o.concFail = endState(f)
	// A failover still under way at the end of the phase is followed, off
	// the clock, up to its bound.
	for poll > 0 && poll <= crashed+convergeMax {
		f.net.RunUntil(poll)
		if f.viewsConverged(f.settled(), true) {
			converge = poll - crashed
			poll = 0
		} else {
			poll += convergePoll
		}
	}
	f.net.RunUntil(max(f.net.Elapsed(), end+drain))

	v := &o.virtual
	v.availability, v.availabilityMin, v.stretch = q.availability(), q.availMin, q.stretch()
	v.attempted, v.failed, v.delivered = dp.attempted, dp.failed, dp.delivered
	if dp.attempted > 0 {
		v.deliveredRatio = float64(dp.delivered) / float64(dp.attempted)
	}
	v.latencySamples = len(dp.latencies)
	slices.Sort(dp.latencies)
	v.p50, v.p99 = quantile(dp.latencies, 0.50), quantile(dp.latencies, 0.99)
	bw := o.after.bw
	for c := range bw.bytes {
		for d := range bw.bytes[c] {
			bw.bytes[c][d] -= o.before.bw.bytes[c][d]
		}
	}
	v.routingKbps = bw.kbps([]wire.Category{wire.CatRouting}, w.n, span)
	v.controlKbps = bw.kbps([]wire.Category{wire.CatProbing, wire.CatRouting, wire.CatMembership}, w.n, span)
	v.installs = o.after.installs - o.before.installs
	switch {
	case w.crashWindow == 0:
		v.convergeS = joined.Seconds()
	case converge >= 0:
		v.convergeS = converge.Seconds()
	}

	o.errs = append(o.errs, dp.check(f.dataDups)...)
	if q.belowOracle > 0 {
		o.errs = append(o.errs, fmt.Sprintf("%d routes cost less than the one-hop oracle; first: %s", q.belowOracle, q.firstBelowOracle))
	}
	if q.samples == 0 {
		o.errs = append(o.errs, "no route quality sample was taken")
	}
	if w.crashWindow > 0 && (converge < 0 || converge > convergeMax) {
		o.errs = append(o.errs, fmt.Sprintf("views did not converge within %s of the primary crash", convergeMax))
	}
	if w.crashWindow == 0 && joined < 0 {
		o.errs = append(o.errs, "the boot join storm never converged")
	}

	runtime.GC()
	o.heapBytes = liveHeap()
	runtime.KeepAlive(f)
	return o
}

// endState averages the routing state and prober failure count over the
// live members.
func endState(f *fleet) (rows, concFail float64) {
	live := 0
	for ep := 0; ep < f.next; ep++ {
		if !f.active[ep] || !f.nodes[ep].Ready() {
			continue
		}
		live++
		n := f.nodes[ep]
		concFail += float64(n.Prober().ConcurrentFailures())
		var t *lsdb.Table
		switch r := n.Router().(type) {
		case *core.Quorum:
			t = r.Table()
		case *core.FullMesh:
			t = r.Table()
		}
		for s := 0; s < t.N(); s++ {
			if t.Matrix().Have(s) {
				rows++
			}
		}
	}
	if live == 0 {
		return 0, 0
	}
	return rows / float64(live), concFail / float64(live)
}

// quantile returns the q-quantile of sorted values by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// cheapest sums a cost component over the windows of the measured phase,
// taking each window from the replay in which it cost least. The replays ran
// the same windows of the same fleet, so they differ only by the machine.
func cheapest(replays []*outcome, pick func(cost) float64) float64 {
	n := len(replays[0].windows)
	for _, o := range replays {
		n = min(n, len(o.windows)) // a replay cut short has failed a check
	}
	sum := 0.0
	for i := range n {
		low := math.Inf(1)
		for _, o := range replays {
			low = min(low, pick(o.windows[i]))
		}
		sum += low
	}
	return sum
}
