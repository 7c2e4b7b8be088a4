package main

import (
	"reflect"
	"runtime"
	"strings"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/overlay"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// layer names the module a span's time is charged to.
type layer int

const (
	layerProbe layer = iota
	layerLsdb
	layerTick
	layerRecommend
	layerView
	layerClient
	layerCoord
	layerOverlay
	layerUnattributed
	numLayers
)

var layerNames = [numLayers]string{
	"probe", "lsdb", "core.tick", "core.recommend", "view",
	"membership.client", "membership.coord", "overlay", "unattributed",
}

// tracer aggregates spans recorded by the tracing decorator. Every packet
// dispatch and timer callback of a node is one span, labelled with the layer
// that owns it; spans never nest, so a span's duration is its self time.
// Spans are aggregated per layer as they end rather than stored.
type tracer struct {
	busy  [numLayers]time.Duration
	calls [numLayers]uint64

	// Counts at the Env boundary.
	msgsOut, bytesOut     [256]uint64 // by wire.MsgType, every Send
	forwarded, delivered  uint64      // data datagrams in transit / at their destination
	events                uint64      // callbacks dispatched through traced Envs
	coordMsgs             uint64      // datagrams sent by coordinator replicas
	fullPasses, incPasses uint64      // quorum ticks by recompute kind

	// installed is set by the fleet's OnViewChange hook, so a membership
	// span that ends in a view install is charged to the view layer.
	installed bool

	funcLayer map[funcKey]layer
}

// funcKey identifies a timer callback's code and whether a coordinator
// scheduled it.
type funcKey struct {
	pc    uintptr
	coord bool
}

func newTracer() *tracer { return &tracer{funcLayer: make(map[funcKey]layer)} }

// reset zeroes the span and count aggregates at the start of the measured
// phase.
func (t *tracer) reset() {
	fl := t.funcLayer
	*t = tracer{funcLayer: fl}
}

func (t *tracer) end(l layer, start time.Time) {
	t.busy[l] += time.Since(start)
	t.calls[l]++
}

func (t *tracer) total() time.Duration {
	var sum time.Duration
	for _, b := range t.busy {
		sum += b
	}
	return sum
}

// packetLayer labels a packet dispatch by its wire type.
func packetLayer(coord bool, p []byte) layer {
	if coord {
		return layerCoord
	}
	switch wire.PeekType(p) {
	case wire.TProbe, wire.TProbeReply:
		return layerProbe
	case wire.TLinkState, wire.TLinkStateAsym, wire.TLinkStateMH, wire.TLinkStateAck:
		return layerLsdb
	case wire.TRecommendation:
		return layerRecommend
	case wire.TData:
		return layerOverlay
	case wire.TJoinReply, wire.TView, wire.TViewChunk, wire.TViewDelta, wire.THeartbeatAck,
		wire.TGossipDelta, wire.TViewPull, wire.TViewPullReply:
		return layerClient
	}
	return layerUnattributed
}

// funcLayerOf labels a timer callback by the package of its function. The
// overlay node's routing ticker belongs to the router.
func funcLayerOf(name string, coord bool) layer {
	if strings.Contains(name, "overlay.(*Node).scheduleTicks") {
		return layerTick
	}
	pkg := name
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[i+1:]
	}
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "probe":
		return layerProbe
	case "core":
		return layerTick
	case "lsdb":
		return layerLsdb
	case "membership":
		if coord {
			return layerCoord
		}
		return layerClient
	case "overlay":
		return layerOverlay
	}
	return layerUnattributed
}

func (t *tracer) timerLayer(fn func(), coord bool) layer {
	key := funcKey{reflect.ValueOf(fn).Pointer(), coord}
	l, ok := t.funcLayer[key]
	if !ok {
		name := ""
		if f := runtime.FuncForPC(key.pc); f != nil {
			name = f.Name()
		}
		l = funcLayerOf(name, coord)
		t.funcLayer[key] = l
	}
	return l
}

// tracedEnv is the tracing decorator: it wraps a node's Env and records a
// span around every packet dispatch and timer callback the Env delivers to
// the node, and counts every datagram the node sends. It changes nothing
// the node observes — no extra randomness, events or reordering — so a
// traced fleet evolves exactly like an untraced one.
type tracedEnv struct {
	transport.Env
	t     *tracer
	coord bool
	node  *overlay.Node // nil for coordinators
}

var _ transport.Env = (*tracedEnv)(nil)

// Bind implements transport.Env.
func (e *tracedEnv) Bind(h transport.Handler) {
	e.Env.Bind(func(from wire.NodeID, p []byte) {
		t := e.t
		l := packetLayer(e.coord, p)
		if l == layerOverlay {
			if _, body, err := wire.ParseHeader(p); err == nil {
				if d, err := wire.ParseData(body); err == nil && d.Dst == e.LocalID() {
					t.delivered++
				} else if err == nil {
					t.forwarded++
				}
			}
		}
		t.events++
		t.installed = false
		start := time.Now()
		h(from, p)
		if l == layerClient && t.installed {
			l = layerView
		}
		t.end(l, start)
	})
}

// After implements transport.Env.
func (e *tracedEnv) After(d time.Duration, fn func()) transport.Timer {
	l := e.t.timerLayer(fn, e.coord)
	return e.Env.After(d, func() {
		t := e.t
		t.events++
		var before core.QuorumStats
		q, isQuorum := e.router().(*core.Quorum)
		if l == layerTick && isQuorum {
			before = q.Stats()
		}
		t.installed = false
		start := time.Now()
		fn()
		ll := l
		if ll == layerClient && t.installed {
			ll = layerView
		}
		t.end(ll, start)
		if l == layerTick && isQuorum {
			after := q.Stats()
			switch {
			case after.PairsCached > before.PairsCached:
				t.incPasses++
			case after.PairsComputed > before.PairsComputed:
				t.fullPasses++
			}
		}
	})
}

func (e *tracedEnv) router() core.Router {
	if e.node == nil {
		return nil
	}
	return e.node.Router()
}

// Send implements transport.Env.
func (e *tracedEnv) Send(to wire.NodeID, p []byte) {
	typ := wire.PeekType(p)
	e.t.msgsOut[typ]++
	e.t.bytesOut[typ] += uint64(len(p) + wire.PerPacketOverhead)
	if e.coord {
		e.t.coordMsgs++
	}
	e.Env.Send(to, p)
}
