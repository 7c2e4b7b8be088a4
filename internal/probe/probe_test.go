package probe

import (
	"fmt"
	"testing"
	"time"

	"allpairs/internal/membership"
	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// probePair wires two (or more) probers over a simulated network with the
// usual overlay dispatch.
type fixture struct {
	nw      *simnet.Network
	probers []*Prober
	envs    []*transport.SimEnv
	changes []map[int]bool // last reported liveness per slot
}

func newFixture(t *testing.T, n int, cfg Config, latency time.Duration) *fixture {
	t.Helper()
	nw := simnet.New(n, 11)
	reg := transport.NewRegistry()
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	view := membership.NewStaticView(ids)
	f := &fixture{nw: nw}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				nw.SetLatency(a, b, latency)
			}
		}
	}
	for i := 0; i < n; i++ {
		i := i
		env := transport.NewSimEnv(nw, reg, i, int64(100+i))
		env.SetLocalID(wire.NodeID(i))
		pr := New(env, cfg, view, i)
		changes := make(map[int]bool)
		pr.OnLinkChange = func(slot int, alive bool) { changes[slot] = alive }
		env.Bind(func(from wire.NodeID, payload []byte) {
			h, body, err := wire.ParseHeader(payload)
			if err != nil {
				return
			}
			switch h.Type {
			case wire.TProbe:
				pr.HandleProbe(h, body)
			case wire.TProbeReply:
				pr.HandleReply(h, body)
			}
		})
		f.probers = append(f.probers, pr)
		f.envs = append(f.envs, env)
		f.changes = append(f.changes, changes)
	}
	return f
}

func (f *fixture) startAll() {
	for _, p := range f.probers {
		p.Start()
	}
}

func TestMeasuresLatency(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second}
	f := newFixture(t, 2, cfg, 25*time.Millisecond)
	f.startAll()
	f.nw.RunFor(time.Minute)

	p := f.probers[0]
	if !p.Alive(1) {
		t.Fatal("link 0->1 not alive")
	}
	ms, ok := p.Latency(1)
	if !ok {
		t.Fatal("no latency estimate")
	}
	if ms < 45 || ms > 55 { // RTT = 2×25ms
		t.Errorf("latency = %.1f ms, want ≈50", ms)
	}
	row := p.Row()
	if row[1].Latency < 45 || row[1].Latency > 55 || !wire.StatusAlive(row[1].Status) {
		t.Errorf("row[1] = %+v", row[1])
	}
	if row[0].Latency != 0 || !wire.StatusAlive(row[0].Status) {
		t.Errorf("self entry = %+v", row[0])
	}
	if !f.changes[0][1] {
		t.Error("no up transition reported")
	}
}

func TestSelfAlwaysAlive(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second}
	f := newFixture(t, 2, cfg, time.Millisecond)
	if !f.probers[0].Alive(0) {
		t.Error("self not alive")
	}
	if f.probers[0].Alive(-1) || f.probers[0].Alive(9) {
		t.Error("out-of-range slots alive")
	}
	if _, ok := f.probers[0].Latency(1); ok {
		t.Error("latency before any measurement")
	}
}

func TestDetectsFailureWithinOnePeriod(t *testing.T) {
	// Paper: rapid probing after a first loss detects failure within ~1
	// probing interval of the first lost probe.
	cfg := Config{Interval: 30 * time.Second, ReplyTimeout: 3 * time.Second, FailThreshold: 5, RapidFactor: 5}
	f := newFixture(t, 2, cfg, 10*time.Millisecond)
	f.startAll()
	f.nw.RunFor(2 * time.Minute) // settle: both links alive
	if !f.probers[0].Alive(1) {
		t.Fatal("link not alive after settling")
	}

	f.nw.SetLinkDown(0, 1, true)
	failedAt := f.nw.Elapsed()
	// Scan forward until the prober notices; it must take less than
	// interval (until next probe) + interval (rapid detection window).
	deadline := failedAt + 2*cfg.Interval + 5*time.Second
	detected := time.Duration(0)
	for f.nw.Elapsed() < deadline {
		f.nw.RunFor(time.Second)
		if !f.probers[0].Alive(1) {
			detected = f.nw.Elapsed()
			break
		}
	}
	if detected == 0 {
		t.Fatal("failure never detected")
	}
	took := detected - failedAt
	if took > 2*cfg.Interval {
		t.Errorf("detection took %v, want ≤ 2 intervals (probe gap + rapid window)", took)
	}
	if f.probers[0].ConcurrentFailures() != 1 {
		t.Errorf("concurrent failures = %d", f.probers[0].ConcurrentFailures())
	}
	if f.probers[0].Row()[1].Status != wire.StatusDead {
		t.Error("row entry not marked dead")
	}
}

func TestRecoveryDetected(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second, FailThreshold: 3}
	f := newFixture(t, 2, cfg, 5*time.Millisecond)
	f.startAll()
	f.nw.RunFor(time.Minute)
	f.nw.SetLinkDown(0, 1, true)
	f.nw.RunFor(time.Minute)
	if f.probers[0].Alive(1) {
		t.Fatal("failure not detected")
	}
	f.nw.SetLinkDown(0, 1, false)
	f.nw.RunFor(time.Minute)
	if !f.probers[0].Alive(1) {
		t.Error("recovery not detected")
	}
	if f.probers[0].ConcurrentFailures() != 0 {
		t.Errorf("concurrent failures = %d after recovery", f.probers[0].ConcurrentFailures())
	}
}

func TestLossyLinkStaysAliveWithLossEstimate(t *testing.T) {
	cfg := Config{Interval: 5 * time.Second, ReplyTimeout: time.Second, FailThreshold: 5}
	f := newFixture(t, 2, cfg, 5*time.Millisecond)
	f.nw.SetLoss(0, 1, 0.3)
	f.startAll()
	f.nw.RunFor(10 * time.Minute)
	p := f.probers[0]
	if !p.Alive(1) {
		t.Fatal("moderately lossy link declared dead")
	}
	row := p.Row()
	if row[1].Status == 0 {
		t.Error("loss estimate is zero on a 30%-lossy link")
	}
	if row[1].Status == wire.StatusDead {
		t.Error("lossy link marked dead")
	}
}

func TestAsymmetricObservation(t *testing.T) {
	// Only 0→1 direction fails; node 1's probes to 0 also die because
	// replies to them cross the failed direction... in fact probes 1→0
	// travel 1→0 fine, but the reply 0→1 is dropped. Both sides see the
	// link as dead — matching the paper's bidirectional link model.
	cfg := Config{Interval: 5 * time.Second, ReplyTimeout: time.Second, FailThreshold: 3}
	f := newFixture(t, 2, cfg, 5*time.Millisecond)
	f.startAll()
	f.nw.RunFor(30 * time.Second)
	f.nw.SetLatencyOneWay(0, 1, 5*time.Millisecond) // no-op; keep symmetric config
	// Simulate one-way blackhole with per-direction loss.
	f.nw.SetLoss(0, 1, 0)
	f.probers[0].Stop()
	f.probers[1].Stop()
	// (Directional failure injection is exercised at the simnet layer; here
	// we simply verify Stop() silences the prober.)
	before := f.nw.Delivered()
	f.nw.RunFor(time.Minute)
	after := f.nw.Delivered()
	if after != before {
		t.Errorf("probes still flowing after Stop: %d -> %d", before, after)
	}
}

func TestSetViewRestartsCleanly(t *testing.T) {
	cfg := Config{Interval: 5 * time.Second, ReplyTimeout: time.Second}
	f := newFixture(t, 3, cfg, 5*time.Millisecond)
	f.startAll()
	f.nw.RunFor(30 * time.Second)
	if !f.probers[0].Alive(2) {
		t.Fatal("link not alive")
	}
	// Shrink the view to two nodes; slots are re-indexed.
	view := membership.NewStaticView([]wire.NodeID{0, 1})
	f.probers[0].SetView(view, 0)
	if len(f.probers[0].Row()) != 2 {
		t.Fatalf("row length = %d", len(f.probers[0].Row()))
	}
	f.nw.RunFor(30 * time.Second)
	if !f.probers[0].Alive(1) {
		t.Error("link 0->1 not re-established after view change")
	}
}

func TestDuplicateAndLateRepliesIgnored(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second}
	f := newFixture(t, 2, cfg, time.Millisecond)
	f.startAll()
	f.nw.RunFor(time.Minute)
	p := f.probers[0]
	before, _ := p.Latency(1)
	// Replay a stale reply with a bogus huge echo delta; must be ignored
	// because no probe is awaiting.
	h := wire.Header{Type: wire.TProbeReply, Src: 1}
	reply := wire.AppendProbeReply(nil, 1, wire.ProbeReply{Seq: 999, Echo: 0})
	_, body, _ := wire.ParseHeader(reply)
	p.HandleReply(h, body)
	after, _ := p.Latency(1)
	if before != after {
		t.Errorf("stale reply changed latency %v -> %v", before, after)
	}
}

func TestProbePacketsAreSmall(t *testing.T) {
	// The bandwidth model assumes header-only probe packets.
	b := wire.AppendProbe(nil, 3, wire.Probe{Seq: 1, Echo: 123})
	if len(b) != wire.HeaderLen+12 {
		t.Errorf("probe payload = %d bytes", len(b))
	}
}

func TestAsymmetricOneWayMeasurement(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second, Asymmetric: true}
	f := newFixture(t, 2, cfg, time.Millisecond)
	// Directed latencies: 0→1 is 40 ms, 1→0 is 10 ms.
	f.nw.SetLatencyOneWay(0, 1, 40*time.Millisecond)
	f.nw.SetLatencyOneWay(1, 0, 10*time.Millisecond)
	f.startAll()
	f.nw.RunFor(time.Minute)

	p := f.probers[0]
	out, in, ok := p.OneWay(1)
	if !ok {
		t.Fatal("no one-way estimates")
	}
	if out < 35 || out > 45 {
		t.Errorf("out = %.1f ms, want ≈40", out)
	}
	if in < 5 || in > 15 {
		t.Errorf("in = %.1f ms, want ≈10", in)
	}
	row := p.AsymRow()
	if row == nil {
		t.Fatal("no asym row")
	}
	if row[1].Out < 35 || row[1].Out > 45 || row[1].In < 5 || row[1].In > 15 {
		t.Errorf("asym row entry = %+v", row[1])
	}
	// RTT estimate remains the sum.
	rtt, _ := p.Latency(1)
	if rtt < 45 || rtt > 55 {
		t.Errorf("rtt = %.1f ms, want ≈50", rtt)
	}
	// Symmetric-mode prober returns no one-way data.
	cfg2 := Config{Interval: 10 * time.Second}
	f2 := newFixture(t, 2, cfg2, time.Millisecond)
	f2.startAll()
	f2.nw.RunFor(time.Minute)
	if _, _, ok := f2.probers[0].OneWay(1); ok {
		t.Error("symmetric prober produced one-way estimates")
	}
	if f2.probers[0].AsymRow() != nil {
		t.Error("symmetric prober has asym row")
	}
}

func TestDataWireRoundTrip(t *testing.T) {
	d := wire.Data{Origin: 3, Dst: 9, TTL: 7, Payload: []byte("hello")}
	b := wire.AppendData(nil, 5, d)
	if len(b) != wire.DataSize(5) {
		t.Errorf("size %d, want %d", len(b), wire.DataSize(5))
	}
	h, body, err := wire.ParseHeader(b)
	if err != nil || h.Type != wire.TData || h.Src != 5 {
		t.Fatalf("header %+v err %v", h, err)
	}
	got, err := wire.ParseData(body)
	if err != nil || got.Origin != 3 || got.Dst != 9 || got.TTL != 7 || string(got.Payload) != "hello" {
		t.Errorf("got %+v err %v", got, err)
	}
	if _, err := wire.ParseData(body[:3]); err == nil {
		t.Error("short data accepted")
	}
}

func TestSetViewCarriesMeasurements(t *testing.T) {
	// Three nodes measure each other, then a fourth joins: surviving links
	// must keep their EWMA latency and liveness across the view change
	// instead of going dark for a probing interval.
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second}
	f := newFixture(t, 4, cfg, 25*time.Millisecond)
	old := membership.NewStaticView([]wire.NodeID{0, 1, 2})
	for i := 0; i < 3; i++ {
		f.probers[i].SetView(old, i)
	}
	f.nw.RunFor(time.Minute)
	p := f.probers[0]
	wantLat, ok := p.Latency(1)
	if !ok || !p.Alive(1) {
		t.Fatal("link 0->1 not measured before the view change")
	}

	// Node 3 joins: IDs 1 and 2 shift slots (0,1,2,3 sorted), 0 stays.
	next := membership.NewStaticView([]wire.NodeID{0, 1, 2, 3})
	p.SetView(next, 0)
	if !p.Alive(1) || !p.Alive(2) {
		t.Error("surviving links lost liveness across SetView")
	}
	got, ok := p.Latency(1)
	if !ok || got != wantLat {
		t.Errorf("carried latency = %.2f (ok=%v), want %.2f", got, ok, wantLat)
	}
	row := p.Row()
	if !wire.StatusAlive(row[1].Status) || row[1].Latency == 0 {
		t.Errorf("carried row entry = %+v", row[1])
	}
	// The newcomer starts cold.
	if p.Alive(3) {
		t.Error("new member alive before any probe")
	}
	if !wire.StatusAlive(row[0].Status) || row[0].Latency != 0 {
		t.Errorf("self entry = %+v", row[0])
	}
}

// nextView applies a one-step delta to v, failing the test on error.
func nextView(t *testing.T, v *membership.ViewInfo, adds []wire.Member, removes ...wire.NodeID) *membership.ViewInfo {
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

func TestSetViewDropsDepartedAndRemapsSlots(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second}
	f := newFixture(t, 3, cfg, 25*time.Millisecond)
	f.startAll()
	f.nw.RunFor(time.Minute)
	p := f.probers[0]
	lat2, ok := p.Latency(2)
	if !ok {
		t.Fatal("link 0->2 not measured")
	}

	// Node 1 departs: its slot becomes a tombstone, ID 2 keeps slot 2.
	p.SetView(nextView(t, p.view, nil, 1), 0)
	got, ok := p.Latency(2)
	if !ok || got != lat2 {
		t.Errorf("carried latency = %.2f (ok=%v), want %.2f", got, ok, lat2)
	}
	if !p.Alive(2) {
		t.Error("surviving link not alive")
	}
	if p.Alive(1) || p.links[1].probeTimer != nil || p.links[1].checkTimer != nil {
		t.Error("departed slot still alive or probed")
	}
	if p.view.N() != 2 {
		t.Errorf("view size = %d", p.view.N())
	}
}

// TestSetViewSelfMoveKeepsLinks: the node is removed and later re-admitted
// at a new slot — the one another departed member left behind, or an
// appended one. Every other member kept its slot, so the prober keeps its
// measurements and running timers on those links, takes the new slot as its
// self entry, and never probes itself.
func TestSetViewSelfMoveKeepsLinks(t *testing.T) {
	for _, target := range []int{3, 5} {
		t.Run(fmt.Sprintf("slot=%d", target), func(t *testing.T) {
			cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second}
			f := newFixture(t, 5, cfg, 25*time.Millisecond)
			f.startAll()
			f.nw.RunFor(time.Minute)
			p := f.probers[1]
			type link struct {
				lat          float64
				probe, check transport.Timer
				seq          uint32
			}
			kept := []int{0, 2, 4}
			before := map[int]link{}
			for _, s := range kept {
				lat, ok := p.Latency(s)
				if !ok || !p.Alive(s) {
					t.Fatalf("link 1->%d not measured", s)
				}
				before[s] = link{lat, p.links[s].probeTimer, p.links[s].checkTimer, p.links[s].seq}
			}

			// IDs 1 and 3 leave; ID 1 is re-admitted at the target slot.
			v3 := nextView(t, nextView(t, p.view, nil, 1, 3), []wire.Member{{ID: 1, Slot: uint16(target)}})
			p.SetView(v3, target)
			for _, s := range kept {
				b := before[s]
				lat, ok := p.Latency(s)
				if !ok || lat != b.lat || !p.Alive(s) {
					t.Errorf("link to slot %d: latency %.2f alive %v, want %.2f alive", s, lat, p.Alive(s), b.lat)
				}
				if p.links[s].probeTimer != b.probe || p.links[s].checkTimer != b.check {
					t.Errorf("link to slot %d: running timers replaced", s)
				}
			}
			for _, s := range []int{1, 3, target} {
				if p.links[s].probeTimer != nil || p.links[s].checkTimer != nil {
					t.Errorf("slot %d (old self, vacated or new self) holds a probe timer", s)
				}
			}
			row := p.Row()
			if row[target].Latency != 0 || !wire.StatusAlive(row[target].Status) {
				t.Errorf("self entry = %+v", row[target])
			}
			if wire.StatusAlive(row[1].Status) || p.Alive(1) {
				t.Errorf("old self slot reads alive: %+v", row[1])
			}

			f.nw.RunFor(time.Minute)
			if p.links[target].seq != 0 || p.links[1].seq != 0 {
				t.Errorf("probed itself or a tombstone: seq[%d]=%d seq[1]=%d", target, p.links[target].seq, p.links[1].seq)
			}
			for _, s := range kept {
				if p.links[s].seq <= before[s].seq || !p.Alive(s) {
					t.Errorf("link to slot %d stopped probing after the move", s)
				}
			}
		})
	}
}

// TestSetViewSurvivorMoveRebuildsCold covers the one remaining branch: a
// member other than the node itself moves (no coordinator does this, so the
// view is built by hand). Every link restarts cold and no timer armed for an
// old slot survives.
func TestSetViewSurvivorMoveRebuildsCold(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second}
	f := newFixture(t, 3, cfg, 25*time.Millisecond)
	f.startAll()
	f.nw.RunFor(time.Minute)
	p := f.probers[0]
	var old []transport.Timer
	for s := 1; s < 3; s++ {
		for _, tm := range []transport.Timer{p.links[s].probeTimer, p.links[s].checkTimer} {
			if tm != nil {
				old = append(old, tm)
			}
		}
	}
	if len(old) == 0 {
		t.Fatal("no running timers before the view change")
	}

	// ID 2 moves from slot 2 to slot 3.
	v2, err := membership.NewViewInfo(wire.View{Epoch: 1, Version: 2, Slots: 4, Members: []wire.Member{
		{ID: 0, Slot: 0}, {ID: 1, Slot: 1}, {ID: 2, Slot: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	p.SetView(v2, 0)
	for i, tm := range old {
		if tm.Stop() {
			t.Errorf("timer %d armed for an old slot survived", i)
		}
	}
	for s := 1; s < 4; s++ {
		if _, ok := p.Latency(s); ok || p.Alive(s) {
			t.Errorf("slot %d kept measurements across a cold rebuild", s)
		}
	}
	if p.links[2].probeTimer != nil || p.links[2].checkTimer != nil {
		t.Error("the vacated slot holds a probe timer")
	}
	if p.links[1].probeTimer == nil || p.links[3].probeTimer == nil {
		t.Error("occupied slots were not rescheduled")
	}
}
