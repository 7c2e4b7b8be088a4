package core

import (
	"testing"
	"time"

	"allpairs/internal/membership"
	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// silenceSenders counts the rendezvous servers with silence stamps.
func silenceSenders(q *Quorum) int {
	k := 0
	for _, about := range q.recAbout {
		if about != nil {
			k++
		}
	}
	return k
}

// monoEnv is a simulated Env whose clock carries a monotonic reading, like
// UDPEnv's time.Now: stamps and silences then go through the monotonic
// branch of time.Time.Sub.
type monoEnv struct {
	*transport.SimEnv
	nw   *simnet.Network
	base time.Time
}

func (e *monoEnv) Now() time.Time { return e.base.Add(e.nw.Elapsed()) }

// silenceOracle is the rendezvous-silence rule written over time.Time
// values: when each (sender, destination) slot pair was last recommended,
// with the view install as the startup grace for pairs never heard.
type silenceOracle struct {
	heard   map[[2]int]time.Time
	started time.Time
}

func (o *silenceOracle) silence(k, dst int, now time.Time) time.Duration {
	last, ok := o.heard[[2]int{k, dst}]
	if !ok {
		last = o.started
	}
	return now.Sub(last)
}

// TestSilenceStampsAcrossStableInstall drives recommendations from three
// senders, then a stable install that retires one sender and one
// destination and appends two slots, and holds every (k, dst) silence and
// liveness answer equal to the time.Time oracle, on the simulator's clock
// and on a monotonic one.
func TestSilenceStampsAcrossStableInstall(t *testing.T) {
	for _, name := range []string{"sim", "monotonic"} {
		t.Run(name, func(t *testing.T) {
			nw := simnet.New(1, 1)
			sim := transport.NewSimEnv(nw, transport.NewRegistry(), 0, 1)
			sim.SetLocalID(0)
			var env transport.Env = sim
			if name == "monotonic" {
				env = &monoEnv{SimEnv: sim, nw: nw, base: time.Now()}
			}
			testSilenceStamps(t, nw, env)
		})
	}
}

func testSilenceStamps(t *testing.T, nw *simnet.Network, env transport.Env) {
	ids := make([]wire.NodeID, 9)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	v1 := membership.NewStaticView(ids)
	q, err := NewQuorum(env, QuorumConfig{Interval: 15 * time.Second}, v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	q.LinkAlive = func(int) bool { return true }
	oracle := &silenceOracle{heard: map[[2]int]time.Time{}, started: env.Now()}

	recommend := func(from wire.NodeID, dsts ...wire.NodeID) {
		t.Helper()
		r := wire.Recommendation{ViewVersion: q.view.VersionNum()}
		for _, d := range dsts {
			r.Entries = append(r.Entries, wire.RecEntry{Dst: d, Hop: d, Cost: 10})
		}
		h, body, err := wire.ParseHeader(wire.AppendRecommendation(nil, from, r))
		if err != nil {
			t.Fatal(err)
		}
		q.HandleRecommendation(h, body)
		k, _ := q.view.SlotOf(from)
		for _, d := range dsts {
			if dst, ok := q.view.SlotOf(d); ok && dst != q.self {
				oracle.heard[[2]int{k, dst}] = env.Now()
			}
		}
	}
	check := func(when string) {
		t.Helper()
		now := env.Now()
		n := q.view.Slots()
		for k := 0; k < n; k++ {
			for dst := 0; dst < n; dst++ {
				want := oracle.silence(k, dst, now)
				if got := q.silence(k, dst, now); got != want {
					t.Errorf("%s: silence(%d, %d) = %v, want %v", when, k, dst, got, want)
				}
				wantLive := k == dst || want <= q.cfg.RemoteSilence
				if got := q.defaultRendezvousLive(k, dst, now); got != wantLive {
					t.Errorf("%s: defaultRendezvousLive(%d, %d) = %v, want %v", when, k, dst, got, wantLive)
				}
			}
		}
		for k, about := range q.recAbout {
			if about != nil && (len(about) != n || cap(about) != n) {
				t.Errorf("%s: sender %d stamps len %d cap %d, want %d", when, k, len(about), cap(about), n)
			}
		}
	}

	// A recommendation in the instant the router was built gets a real
	// stamp, not the "never heard" 0.
	recommend(3, 7)
	nw.RunFor(time.Second)
	// Self (ID 0) and an unknown ID (99) are skipped.
	recommend(1, 0, 2, 3, 4, 5, 6, 7, 8, 99)
	recommend(2, 5, 7, 8)
	nw.RunFor(29 * time.Second)
	recommend(3, 4, 5, 6)
	check("before install")

	// ID 2 (a sender) and ID 5 (a destination) leave; IDs 20 and 21 append
	// slots 9 and 10.
	nw.RunFor(5 * time.Second)
	v2, err := v1.ApplyDelta(wire.ViewDelta{
		Epoch: 1, BaseVersion: 1, Version: 2,
		Adds:    []wire.Member{{ID: 20, Slot: 9}, {ID: 21, Slot: 10}},
		Removes: []wire.NodeID{2, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.SetView(v2, 0); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.ViewExtends != 1 || st.ViewRemaps != 0 {
		t.Fatalf("extends=%d remaps=%d, want 1/0", st.ViewExtends, st.ViewRemaps)
	}
	for key := range oracle.heard {
		if key[0] == 2 || key[1] == 2 || key[0] == 5 || key[1] == 5 {
			delete(oracle.heard, key)
		}
	}
	oracle.started = env.Now()
	if len(q.recAbout) != 11 || q.recAbout[2] != nil || silenceSenders(q) != 2 {
		t.Fatalf("after install: %d sender entries, retired sender kept=%v, %d senders; want 11, false, 2",
			len(q.recAbout), q.recAbout[2] != nil, silenceSenders(q))
	}
	check("at install")

	// Sender 1's stamps and sender 3's first one are now past RemoteSilence
	// (dead); sender 3's later ones and the startup grace are inside it
	// (live).
	nw.RunFor(25 * time.Second)
	check("25 s after install")
	recommend(20, 21, 3)
	nw.RunFor(20 * time.Second)
	check("45 s after install")
}
