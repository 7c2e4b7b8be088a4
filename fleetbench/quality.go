package main

import (
	"fmt"

	"allpairs/internal/overlay"
	"allpairs/internal/wire"
)

const (
	// samplePairs caps the ordered settled pairs checked per sample; they
	// are chosen by a deterministic stride over all pairs.
	samplePairs = 2000
	// quantizationMS is how far a route's cost may sit below the oracle:
	// the prober truncates each leg's RTT to whole milliseconds.
	quantizationMS = 2
)

// quality accumulates route availability and stretch samples, checked
// against simulator ground truth.
type quality struct {
	samples          int
	availSum         float64
	availMin         float64
	stretchSum       float64
	stretchN         int
	belowOracle      int
	firstBelowOracle string
}

func newQuality() *quality { return &quality{availMin: 1} }

// sample measures the settled pairs' routes now. A pair is available when
// its route checks as usable against the simulator: every link up and the
// intermediate a live member. Pairs with no physical path at all are
// excluded, since no routing system could serve them.
func (q *quality) sample(f *fleet) {
	eps := f.settled()
	if len(eps) < 2 {
		return
	}
	idToEp := make(map[wire.NodeID]int, f.next)
	var live []int
	for ep := 0; ep < f.next; ep++ {
		if f.active[ep] {
			idToEp[f.envs[ep].LocalID()] = ep
			live = append(live, ep)
		}
	}
	total := len(eps) * (len(eps) - 1)
	check := min(total, samplePairs)
	var pairs, routed int
	for k := 0; k < check; k++ {
		idx := k * total / check
		i, j := idx/(len(eps)-1), idx%(len(eps)-1)
		if j >= i {
			j++
		}
		a, b := eps[i], eps[j]
		r, ok := f.nodes[a].BestHop(f.envs[b].LocalID())
		usable := ok && routeUsable(f, idToEp, a, b, r)
		oracle := oracleOneHop(f, live, a, b)
		if !usable {
			if oracle != wire.InfCost {
				pairs++
			}
			continue
		}
		pairs++
		routed++
		if r.Cost.Add(quantizationMS) < oracle {
			q.belowOracle++
			if q.firstBelowOracle == "" {
				q.firstBelowOracle = fmt.Sprintf("route %d→%d via %d costs %d ms, oracle %d ms at t=%s",
					a, b, r.Hop, r.Cost, oracle, f.net.Elapsed())
			}
		}
		if oracle > 0 {
			q.stretchSum += float64(r.Cost) / float64(oracle)
			q.stretchN++
		}
	}
	avail := 1.0
	if pairs > 0 {
		avail = float64(routed) / float64(pairs)
	}
	q.samples++
	q.availSum += avail
	q.availMin = min(q.availMin, avail)
}

func (q *quality) availability() float64 {
	if q.samples == 0 {
		return 0
	}
	return q.availSum / float64(q.samples)
}

func (q *quality) stretch() float64 {
	if q.stretchN == 0 {
		return 0
	}
	return q.stretchSum / float64(q.stretchN)
}

// routeUsable verifies a route against ground truth.
func routeUsable(f *fleet, idToEp map[wire.NodeID]int, a, b int, r overlay.Route) bool {
	if r.Hop == r.Dst {
		return f.net.Reachable(a, b)
	}
	h, ok := idToEp[r.Hop]
	return ok && f.net.Reachable(a, h) && f.net.Reachable(h, b)
}

// oracleOneHop is the true optimal one-hop RTT from a to b over the live
// members, each leg truncated to whole milliseconds as the prober does.
func oracleOneHop(f *fleet, live []int, a, b int) wire.Cost {
	rtt := func(x, y int) wire.Cost {
		if !f.net.Reachable(x, y) {
			return wire.InfCost
		}
		return wire.Cost(f.topo.LatencyMS[x][y])
	}
	best := rtt(a, b)
	for _, h := range live {
		if h != a && h != b {
			best = min(best, rtt(a, h).Add(rtt(h, b)))
		}
	}
	return best
}

// routesConverged reports whether every live member has joined and holds a
// route to every other live member — the end of warm-up.
func routesConverged(f *fleet) error {
	for ep := 0; ep < f.next; ep++ {
		if !f.active[ep] {
			continue
		}
		n := f.nodes[ep]
		if !n.Ready() {
			return fmt.Errorf("endpoint %d has not joined", ep)
		}
		if got, want := len(n.RouteTable()), n.View().N()-1; got != want {
			return fmt.Errorf("endpoint %d holds %d routes for %d peers", ep, got, want)
		}
	}
	if !f.viewsConverged(f.live(), false) {
		return fmt.Errorf("members do not hold the primary's view stamp")
	}
	return nil
}
