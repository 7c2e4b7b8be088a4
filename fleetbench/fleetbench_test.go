package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"allpairs/internal/overlay"
	"allpairs/internal/simnet"
)

// small fleets shaped like the benchmark's workloads, cheap enough for a
// unit test.
var smallWorkloads = []workload{
	{name: "deploy-small", alg: overlay.AlgQuorum, n: 25, coords: 1, planetLab: true,
		flows: 40, flowRate: 10, windows: 10, warmup: 60 * time.Second},
	{name: "churn-small", alg: overlay.AlgQuorum, n: 25, coords: 3,
		loss: 0.02, dup: 0.01, jitter: 10 * time.Millisecond,
		churnPerMin: 0.2, crashWindow: 2,
		flows: 20, flowRate: 5, windows: 10, warmup: 60 * time.Second},
	{name: "fullmesh-small", alg: overlay.AlgFullMesh, n: 25, coords: 1, planetLab: true,
		flows: 20, flowRate: 5, windows: 10, warmup: 90 * time.Second},
}

const smallSpan = 60 * time.Second

func runSmall(t *testing.T, w workload, tr *tracer) (*fleet, *outcome) {
	t.Helper()
	f, _, joined, err := setUp(w, 3, w.warmup+warmupSlack+smallSpan+convergeMax, tr)
	if err != nil {
		t.Fatal(err)
	}
	o := measure(f, smallSpan, joined)
	if len(o.errs) > 0 {
		t.Fatalf("output checks failed: %v", o.errs)
	}
	return f, o
}

// routeDigest hashes every live member's route table.
func routeDigest(f *fleet) [32]byte {
	h := sha256.New()
	for _, ep := range f.live() {
		for _, r := range f.nodes[ep].RouteTable() {
			var b [9]byte
			binary.BigEndian.PutUint16(b[0:], uint16(ep))
			binary.BigEndian.PutUint16(b[2:], uint16(r.Dst))
			binary.BigEndian.PutUint16(b[4:], uint16(r.Hop))
			binary.BigEndian.PutUint16(b[6:], uint16(r.Cost))
			b[8] = byte(r.Source)
			h.Write(b[:])
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestTracingIsTransparent: a traced fleet ends with the same route tables
// and the same virtual-time metrics as an untraced one of the same seed,
// and every span it records is charged to a named layer.
func TestTracingIsTransparent(t *testing.T) {
	for _, w := range smallWorkloads {
		t.Run(w.name, func(t *testing.T) {
			pf, plain := runSmall(t, w, nil)
			tf, traced := runSmall(t, w, newTracer())
			if routeDigest(pf) != routeDigest(tf) {
				t.Error("route tables differ with the tracing decorator")
			}
			if plain.virtual != traced.virtual {
				t.Errorf("virtual metrics differ:\nplain  %+v\ntraced %+v", plain.virtual, traced.virtual)
			}
			if plain.virtual.attempted == 0 || plain.virtual.delivered == 0 {
				t.Errorf("no traffic measured: %+v", plain.virtual)
			}
			tr := traced.tr
			if tr.calls[layerUnattributed] != 0 {
				t.Errorf("%d spans fell in no layer", tr.calls[layerUnattributed])
			}
			m := perLayer(plain, traced)
			if pct := m["trace.unattributed_pct"]; pct >= 1 {
				t.Errorf("trace.unattributed_pct = %v, want < 1", pct)
			}
			for _, d := range perLayerDefs() {
				if _, ok := m[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			for _, l := range []layer{layerProbe, layerLsdb, layerTick, layerOverlay} {
				if tr.calls[l] == 0 {
					t.Errorf("no %s spans recorded", layerNames[l])
				}
			}
			if w.churnPerMin > 0 && (tr.calls[layerView] == 0 || plain.virtual.installs == 0) {
				t.Errorf("churn installed no views: %d view spans, %d installs", tr.calls[layerView], plain.virtual.installs)
			}
			if w.alg == overlay.AlgFullMesh && tr.calls[layerRecommend] != 0 {
				t.Errorf("full mesh dispatched %d recommendations", tr.calls[layerRecommend])
			}
		})
	}
}

// TestCheapestReplay: each window's cost comes from the replay in which that
// window cost least, so a slow stretch in one replay does not move the sum.
func TestCheapestReplay(t *testing.T) {
	replay := func(walls ...int) *outcome {
		o := &outcome{}
		for _, w := range walls {
			o.windows = append(o.windows, cost{wall: time.Duration(w) * time.Millisecond})
		}
		return o
	}
	wall := func(c cost) float64 { return ms(c.wall) }
	replays := []*outcome{replay(10, 90, 30), replay(50, 20, 40), replay(30, 60, 35)}
	if got := cheapest(replays, wall); got != 10+20+30 {
		t.Errorf("cheapest = %v ms, want 60", got)
	}
	// A replay cut short by a failed check limits the windows summed.
	if got := cheapest(append(replays, replay(5)), wall); got != 5 {
		t.Errorf("cheapest with a short replay = %v ms, want 5", got)
	}
}

// TestStolen: wall time loses the share of the CPUs' wanted time that the
// hypervisor stole, and nothing when the counters show no steal.
func TestStolen(t *testing.T) {
	wall := 800 * time.Millisecond
	for _, c := range []struct {
		busy0, steal0, busy1, steal1 uint64
		want                         time.Duration
	}{
		{100, 7, 175, 32, 200 * time.Millisecond}, // 25 of 100 ticks stolen
		{100, 7, 180, 7, 0},                       // no steal
		{0, 0, 0, 0, 0},                           // /proc/stat unreadable
		{100, 7, 90, 9, 0},                        // counters went backwards
	} {
		if got := stolenPart(wall, c.busy0, c.steal0, c.busy1, c.steal1); got != c.want {
			t.Errorf("stolenPart(%v, %d, %d, %d, %d) = %v, want %v", wall, c.busy0, c.steal0, c.busy1, c.steal1, got, c.want)
		}
	}
	if busy, _ := machineTicks(); busy == 0 {
		t.Log("/proc/stat gives no CPU times here; wall time is used as measured")
	}
}

func TestFuncLayerOf(t *testing.T) {
	for name, want := range map[string]layer{
		"allpairs/internal/overlay.(*Node).scheduleTicks.func1":    layerTick,
		"allpairs/internal/core.(*Quorum).sendLinkState.func1":     layerTick,
		"allpairs/internal/probe.(*Prober).sendProbe.func1":        layerProbe,
		"allpairs/internal/membership.(*Client).heartbeat-fm":      layerClient,
		"allpairs/internal/overlay.(*Node).SendData":               layerOverlay,
		"allpairs/fleetbench.(*dataPlane).open.func1":              layerUnattributed,
		"allpairs/internal/lsdb.(*CostMatrix).BestOneHopAll.func1": layerLsdb,
	} {
		if got := funcLayerOf(name, false); got != want {
			t.Errorf("funcLayerOf(%q) = %s, want %s", name, layerNames[got], layerNames[want])
		}
	}
	if got := funcLayerOf("allpairs/internal/membership.(*Coordinator).sweep-fm", true); got != layerCoord {
		t.Errorf("coordinator timer charged to %s", layerNames[got])
	}
}

// TestIntegrityChecker: the receiving side rejects a corrupted datagram, a
// misdelivered one, a forged origin and an unexplained duplicate.
func TestIntegrityChecker(t *testing.T) {
	f := &fleet{net: simnet.New(3, 1)}
	d := &dataPlane{f: f, flows: []*flow{{src: 0, dst: 1, srcID: 10, dstID: 11, next: 3}}}
	good := appendPayload(nil, 0, 1, 0)
	if len(good) != payloadSize(0, 1) {
		t.Fatalf("payload is %d bytes, want %d", len(good), payloadSize(0, 1))
	}

	d.receive(1, 10, good)
	if d.delivered != 1 || d.badDatagrams != 0 {
		t.Fatalf("intact datagram: delivered=%d bad=%d", d.delivered, d.badDatagrams)
	}
	if errs := d.check(0); len(errs) != 0 {
		t.Fatalf("clean run reported %v", errs)
	}

	corrupt := append([]byte(nil), appendPayload(nil, 0, 2, 0)...)
	corrupt[len(corrupt)-1] ^= 0x40
	d.receive(1, 10, corrupt)
	d.receive(2, 10, appendPayload(nil, 0, 2, 0))      // misdelivered
	d.receive(1, 12, appendPayload(nil, 0, 2, 0))      // forged origin
	d.receive(1, 10, appendPayload(nil, 0, 2, 0)[:30]) // truncated
	if d.badDatagrams != 4 || d.delivered != 1 {
		t.Fatalf("bad=%d delivered=%d, want 4 bad and still 1 delivered", d.badDatagrams, d.delivered)
	}
	if errs := d.check(0); len(errs) == 0 {
		t.Fatal("check passed despite bad datagrams")
	}

	dup := &dataPlane{f: f, flows: []*flow{{src: 0, dst: 1, srcID: 10, dstID: 11, next: 1}}}
	p := appendPayload(nil, 0, 0, 0)
	dup.receive(1, 10, p)
	dup.receive(1, 10, p)
	if errs := dup.check(1); len(errs) != 0 {
		t.Fatalf("a fault-plane duplicate was rejected: %v", errs)
	}
	if errs := dup.check(0); len(errs) == 0 {
		t.Fatal("an unexplained duplicate passed")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	if len(spec.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndDefs))
	}
	for i, m := range spec.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	defs := perLayerDefs()
	if len(spec.PerLayer) != len(defs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(defs))
	}
	for i, m := range spec.PerLayer {
		if d := defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if strings.Join(spec.Command, " ") != "bash fleetbench/run.sh" {
		t.Errorf("command = %v", spec.Command)
	}
}

// TestQuartilesMatchPython pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the benchmark's spread is
// defined by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := bound{better: "lower", bound: 0.1}
	cases := []struct {
		name string
		r    row
		want string
	}{
		{"gain", row{base: []float64{100, 101, 102, 99, 100}, change: []float64{80, 81, 79, 80, 82}, wins: 5, pairs: 5, bound: lower}, "better"},
		{"regression", row{base: []float64{100, 101, 102, 99, 100}, change: []float64{120, 121, 119, 122, 120}, pairs: 5, bound: lower}, "worse"},
		{"noise", row{base: []float64{100, 101, 102, 99, 100}, change: []float64{101, 100, 102, 99, 101}, wins: 2, pairs: 5, bound: lower}, "within bound"},
		{"wide", row{base: []float64{60, 140, 100, 80, 120}, change: []float64{100, 90, 130, 70, 110}, wins: 2, pairs: 5, bound: lower}, "unresolved"},
		{"steady", row{base: []float64{100, 101, 102, 99, 100}, bound: lower}, "steady"},
		{"unsteady", row{base: []float64{60, 140, 100, 80, 120}, bound: lower}, "unsteady"},
	}
	for _, c := range cases {
		if got := c.r.verdict(); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestParseRun(t *testing.T) {
	out := "# fleetbench workload=churn seed=7 seconds=6 trace=0\n# machine cpu=\"x\" nproc=2\nsetup_s 1 s\n" +
		`{"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}` + "\n"
	r, err := parseRun(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if r.workload != "churn" || r.seed != 7 || r.res.Metrics["setup_s"].Value != 1.5 || !strings.Contains(r.machine, "nproc=2") {
		t.Errorf("parsed %+v", r)
	}
}
