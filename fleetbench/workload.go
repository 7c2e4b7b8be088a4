package main

import (
	"fmt"
	"time"

	"allpairs/internal/overlay"
)

// workload is one fleet configuration the benchmark can run. Everything
// that varies between runs of one workload comes from the seed.
type workload struct {
	name string

	alg    overlay.Algorithm
	n      int // steady member population
	coords int // coordinator replicas

	// planetLab applies the environment's per-link loss and its
	// FailureSchedule link failures (the paper's §6.3 model). Otherwise
	// loss, dup and jitter are the fault plane on every member↔member link;
	// links to the coordinator replicas stay clean.
	planetLab bool
	loss, dup float64
	jitter    time.Duration

	// churnPerMin is the fraction of members replaced per virtual minute
	// (half crash, half leave); the primary coordinator is fail-stopped at
	// the start of window crashWindow of the measured phase (0 = never).
	churnPerMin float64
	crashWindow int

	// flows constant-rate flows carry flowRate datagrams per virtual second
	// each.
	flows    int
	flowRate float64

	// windows is how many equal windows the measured phase is split into;
	// cost metrics take each window from its cheapest replay.
	windows int

	// warmup is the minimum virtual time the fleet gets to join and converge
	// before the measured phase: the settle bound of a member, one probe
	// interval plus two routing intervals. virtualPerSecond is the measured
	// phase's virtual span per second of --seconds, chosen so that the
	// replays of a run together measure for about --seconds of wall time on
	// a 2-vCPU machine.
	warmup           time.Duration
	virtualPerSecond time.Duration
}

var workloads = []workload{
	{
		name: "deploy", alg: overlay.AlgQuorum, n: 300, coords: 1, planetLab: true,
		flows: 2000, flowRate: 5,
		windows: 10, warmup: 60 * time.Second, virtualPerSecond: 2 * time.Second,
	},
	{
		name: "churn", alg: overlay.AlgQuorum, n: 300, coords: 3,
		loss: 0.02, dup: 0.01, jitter: 10 * time.Millisecond,
		// One departure every 4 s: at --seconds 10 each 4 s window holds
		// exactly one. The crash lands after 3 of 6 windows.
		churnPerMin: 0.05, crashWindow: 3,
		flows: 1000, flowRate: 1,
		windows: 6, warmup: 60 * time.Second, virtualPerSecond: 2400 * time.Millisecond,
	},
	{
		name: "fullmesh", alg: overlay.AlgFullMesh, n: 300, coords: 1, planetLab: true,
		flows: 1000, flowRate: 1,
		windows: 10, warmup: 90 * time.Second, virtualPerSecond: 5 * time.Second,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have deploy, churn, fullmesh)", name)
}

// rate is the workload's offered data load in datagrams per virtual second.
func (w workload) rate() float64 { return float64(w.flows) * w.flowRate }
