package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"allpairs/internal/wire"
)

// metricDef names a metric, its unit and which direction is better. The
// lists below match BENCHMARK.json, which a test checks.
type metricDef struct {
	name, unit, better string
}

var endToEndDefs = []metricDef{
	{"cpu_us_per_node_s", "us/node-s", "lower"},
	{"wall_us_per_node_s", "us/node-s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_bytes_per_node_s", "B/node-s", "lower"},
	{"heap_bytes_per_node", "B/node", "lower"},
	{"route_availability", "ratio", "higher"},
	{"route_availability_min", "ratio", "higher"},
	{"route_stretch", "ratio", "lower"},
	{"delivered_ratio", "ratio", "higher"},
	{"delivery_ms_p50", "ms", "lower"},
	{"delivery_ms_p99", "ms", "lower"},
	{"routing_kbps_per_node", "kbps/node", "lower"},
	{"control_kbps_per_node", "kbps/node", "lower"},
}

// wireTypes are the message types whose traffic the wire layer reports:
// every type the three workloads can send.
var wireTypes = []wire.MsgType{
	wire.TProbe, wire.TProbeReply, wire.TLinkState, wire.TRecommendation,
	wire.TJoin, wire.TJoinReply, wire.TLeave, wire.THeartbeat, wire.TView,
	wire.TViewDelta, wire.TViewRequest, wire.TData, wire.THeartbeatAck,
	wire.TCoordBeacon, wire.TPreVote, wire.TPreVoteReply, wire.TGossipDelta,
	wire.TViewPull, wire.TViewPullReply, wire.TViewChunk,
}

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"probe.busy_ms", "ms", "lower"},
		{"probe.calls", "count", "lower"},
		{"probe.msgs_out", "count", "lower"},
		{"probe.bytes_out", "B", "lower"},
		{"probe.concurrent_failures", "count/node", "lower"},
		{"lsdb.busy_ms", "ms", "lower"},
		{"lsdb.calls", "count", "lower"},
		{"lsdb.rows_held_per_node", "count/node", "lower"},
		{"core.tick.busy_ms", "ms", "lower"},
		{"core.tick.calls", "count", "lower"},
		{"core.pair_cache_hit_ratio", "ratio", "higher"},
		{"core.pairs_computed", "count", "lower"},
		{"core.full_passes", "count", "lower"},
		{"core.incremental_passes", "count", "higher"},
		{"core.recommend.busy_ms", "ms", "lower"},
		{"core.recommend.calls", "count", "lower"},
		{"view.installs", "count", "lower"},
		{"view.extends", "count", "higher"},
		{"view.remaps", "count", "lower"},
		{"view.busy_ms", "ms", "lower"},
		{"membership.client.busy_ms", "ms", "lower"},
		{"membership.client.calls", "count", "lower"},
		{"membership.coord.busy_ms", "ms", "lower"},
		{"membership.coord.calls", "count", "lower"},
		{"membership.bytes_out", "B", "lower"},
		{"membership.gossip_dup_ratio", "ratio", "lower"},
		{"membership.pulls", "count", "lower"},
		{"membership.fallbacks", "count", "lower"},
		{"membership.full_view_requests", "count", "lower"},
		{"membership.coord_msgs_per_change", "count", "lower"},
		{"membership.converge_s", "s", "lower"},
		{"overlay.busy_ms", "ms", "lower"},
		{"overlay.calls", "count", "lower"},
		{"overlay.forwarded", "count", "lower"},
		{"overlay.delivered", "count", "higher"},
		{"overlay.latency_samples", "count", "higher"},
	}
	for _, t := range wireTypes {
		defs = append(defs,
			metricDef{"wire." + t.String() + ".msgs_out", "count", "lower"},
			metricDef{"wire." + t.String() + ".bytes_out", "B", "lower"})
	}
	return append(defs,
		metricDef{"simnet.busy_ms", "ms", "lower"},
		metricDef{"simnet.events", "count", "lower"},
		metricDef{"simnet.delivered", "count", "lower"},
		metricDef{"simnet.dropped", "count", "lower"},
		metricDef{"simnet.duplicated", "count", "lower"},
		metricDef{"gc.cpu_ms", "ms", "lower"},
		metricDef{"gc.cycles", "count", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
		metricDef{"trace.unattributed_pct", "%", "lower"},
	)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the end-to-end metrics of an untraced run from its
// replays. Costs are per node per virtual second of the measured phase,
// summed over its windows with each window taken from its cheapest replay;
// wall time leaves out what the hypervisor stole. Setup time and live heap
// are the medians over the replays.
func endToEnd(w workload, setups []time.Duration, replays []*outcome) map[string]float64 {
	nodeSec := float64(w.n) * replays[0].span.Seconds()
	setupS := make([]float64, len(setups))
	heap := make([]float64, len(replays))
	for i, s := range setups {
		setupS[i] = s.Seconds()
		heap[i] = float64(replays[i].heapBytes)
	}
	v := replays[0].virtual
	return map[string]float64{
		"cpu_us_per_node_s":      cheapest(replays, func(c cost) float64 { return float64(c.cpu) / 1e3 }) / nodeSec,
		"wall_us_per_node_s":     cheapest(replays, func(c cost) float64 { return float64(c.wall-c.stolen) / 1e3 }) / nodeSec,
		"setup_s":                median(setupS),
		"alloc_bytes_per_node_s": cheapest(replays, func(c cost) float64 { return float64(c.alloc) }) / nodeSec,
		"heap_bytes_per_node":    median(heap) / float64(w.n),
		"route_availability":     v.availability,
		"route_availability_min": v.availabilityMin,
		"route_stretch":          v.stretch,
		"delivered_ratio":        v.deliveredRatio,
		"delivery_ms_p50":        v.p50,
		"delivery_ms_p99":        v.p99,
		"routing_kbps_per_node":  v.routingKbps,
		"control_kbps_per_node":  v.controlKbps,
	}
}

// perLayer computes the per-layer metrics from the traced run t, with the
// untraced run p of the same seed for the tracing overhead and GC figures.
func perLayer(p, t *outcome) map[string]float64 {
	tr := t.tr
	b, a := t.before, t.after
	m := map[string]float64{}
	for l := layer(0); l < layerUnattributed; l++ {
		m[layerNames[l]+".busy_ms"] = ms(tr.busy[l])
		if l != layerView { // view spans are membership calls that installed
			m[layerNames[l]+".calls"] = float64(tr.calls[l])
		}
	}
	var probeMsgs, probeBytes, memberBytes uint64
	for typ := range tr.msgsOut {
		switch wire.CategoryOf(wire.MsgType(typ)) {
		case wire.CatProbing:
			probeMsgs += tr.msgsOut[typ]
			probeBytes += tr.bytesOut[typ]
		case wire.CatMembership:
			memberBytes += tr.bytesOut[typ]
		}
	}
	for _, typ := range wireTypes {
		m["wire."+typ.String()+".msgs_out"] = float64(tr.msgsOut[typ])
		m["wire."+typ.String()+".bytes_out"] = float64(tr.bytesOut[typ])
	}
	m["probe.msgs_out"] = float64(probeMsgs)
	m["probe.bytes_out"] = float64(probeBytes)
	m["probe.concurrent_failures"] = t.concFail
	m["lsdb.rows_held_per_node"] = t.rowsHeld

	cached, computed := a.pairsCached-b.pairsCached, a.pairsComputed-b.pairsComputed
	m["core.pair_cache_hit_ratio"] = ratio(cached, cached+computed)
	m["core.pairs_computed"] = float64(computed)
	m["core.full_passes"] = float64(a.fullPasses - b.fullPasses + tr.fullPasses)
	m["core.incremental_passes"] = float64(a.incPasses - b.incPasses + tr.incPasses)

	m["view.installs"] = float64(t.virtual.installs)
	m["view.extends"] = float64(a.extends - b.extends)
	m["view.remaps"] = float64(a.remaps - b.remaps)

	changes := a.flushes - b.flushes
	m["membership.bytes_out"] = float64(memberBytes)
	m["membership.gossip_dup_ratio"] = ratio(a.client.GossipDups-b.client.GossipDups, a.client.GossipSeen-b.client.GossipSeen)
	m["membership.pulls"] = float64(a.client.PullsSent - b.client.PullsSent)
	m["membership.fallbacks"] = float64(a.client.FullViewFallbacks - b.client.FullViewFallbacks)
	m["membership.full_view_requests"] = float64(a.client.FullViewRequests - b.client.FullViewRequests)
	m["membership.coord_msgs_per_change"] = ratio(tr.coordMsgs, changes)
	m["membership.converge_s"] = t.virtual.convergeS

	m["overlay.forwarded"] = float64(tr.forwarded)
	m["overlay.delivered"] = float64(tr.delivered)
	m["overlay.latency_samples"] = float64(t.virtual.latencySamples)

	loop := t.total.wall - tr.total()
	m["simnet.busy_ms"] = ms(loop)
	m["simnet.events"] = float64(tr.events)
	m["simnet.delivered"] = float64(a.netDelivered - b.netDelivered)
	m["simnet.dropped"] = float64(a.netDropped - b.netDropped)
	m["simnet.duplicated"] = float64(a.netDuplicated - b.netDuplicated)

	m["gc.cpu_ms"] = (p.after.gcCPU - p.before.gcCPU) * 1000
	m["gc.cycles"] = float64(p.after.gcCycles - p.before.gcCycles)

	m["trace.overhead_pct"] = (t.total.wall.Seconds()/p.total.wall.Seconds() - 1) * 100
	m["trace.unattributed_pct"] = 100 * ms(tr.busy[layerUnattributed]) / ms(t.total.wall)
	return m
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fingerprint describes the machine and code a result was measured on.
func fingerprint() string {
	commit := "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest("."))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
