// Command fleetbench is the repository's end-to-end benchmark. It runs a
// fleet of unmodified overlay nodes on the deterministic simulator, drives
// application traffic through them, and reports per-node cost, route
// quality and delivered traffic; a traced run attributes the cost to the
// node's layers. See README.md for the workloads and every metric.
//
//	fleetbench --workload deploy --seed 1 --seconds 10 --trace 0
//	fleetbench compare <base-dir> [<change-dir>]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// replays is how many times an untraced run builds and warms up its fleet
// and measures the phase. Every replay builds the same fleet from the seed
// and runs the same phase, so setup_s is the median set-up and each cost
// metric takes, window by window, the cheapest replay: machine noise must
// then hit the same window of every replay to move the figure.
const replays = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "fleetbench compare:", err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("fleetbench", flag.ExitOnError)
	name := fs.String("workload", "deploy", "workload: deploy, churn or fullmesh")
	seed := fs.Int64("seed", 1, "seed all inputs are made from")
	seconds := fs.Int("seconds", 10, "measured span: the workload's virtual phase is scaled so that its replays take about this much wall time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	ok, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures one workload and prints the report. It returns whether every
// output check passed.
func run(w workload, seed int64, seconds int, traced bool) (bool, error) {
	span := time.Duration(seconds) * w.virtualPerSecond
	total := w.warmup + warmupSlack + span + convergeMax
	fmt.Printf("# fleetbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, seed, seconds, boolInt(traced))
	fmt.Printf("# machine %s\n", fingerprint())
	fmt.Printf("# workload n=%d coordinators=%d %s; warm-up %s, measured %s virtual in %d windows\n",
		w.n, w.coords, w.alg, w.warmup, span, w.windows)
	fmt.Printf("# generator: open loop on virtual time, %d flows × %g datagrams/s = %g datagrams/s; never late (the schedule is virtual)\n",
		w.flows, w.flowRate, w.rate())

	runs := replays
	if traced {
		runs = 1
	}
	var setups []time.Duration
	var plains []*outcome
	for i := 0; i < runs; i++ {
		f, d, joined, err := setUp(w, seed, total, nil)
		if err != nil {
			return false, err
		}
		setups = append(setups, d)
		plains = append(plains, measure(f, span, joined))
	}
	plain := plains[0]
	errs := plain.errs
	for i, o := range plains {
		if o.virtual != plain.virtual {
			errs = append(errs, fmt.Sprintf("replay %d differs from replay 1 in virtual time: %+v vs %+v", i+1, o.virtual, plain.virtual))
		}
		fmt.Printf("# replay %d: set-up %.3fs, %.1f%% of the phase's wall stolen, window wall ms %s\n",
			i+1, setups[i].Seconds(), 100*o.total.stolen.Seconds()/o.total.wall.Seconds(), windowWalls(o.windows))
	}

	defs, values := endToEndDefs, map[string]float64(nil)
	if traced {
		tf, _, tjoined, err := setUp(w, seed, total, newTracer())
		if err != nil {
			return false, err
		}
		tr := measure(tf, span, tjoined)
		errs = append(errs, tr.errs...)
		if tr.virtual != plain.virtual {
			errs = append(errs, fmt.Sprintf("traced run differs from the untraced one in virtual time: %+v vs %+v", tr.virtual, plain.virtual))
		}
		defs, values = perLayerDefs(), perLayer(plain, tr)
	} else {
		values = endToEnd(w, setups, plains)
	}

	v := plain.virtual
	fmt.Printf("# warm-up converged at %s virtual; virtual results repeat exactly for a seed\n", plain.start)
	fmt.Printf("# data attempted=%d failed=%d delivered=%d latency samples=%d; view installs=%d\n",
		v.attempted, v.failed, v.delivered, v.latencySamples, v.installs)
	fmt.Printf("%-36s %16.6g %s\n", "converge_s", v.convergeS, "s")
	res := result{Correct: len(errs) == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		val, ok := values[d.name]
		if !ok {
			return false, fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metric{Value: val, Unit: d.unit}
		fmt.Printf("%-36s %16.6g %s\n", d.name, val, d.unit)
	}
	sort.Strings(errs)
	for _, e := range errs {
		fmt.Printf("# CHECK FAILED: %s\n", e)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return res.Correct, nil
}

func windowWalls(ws []cost) string {
	parts := make([]string, len(ws))
	for i, c := range ws {
		parts[i] = strconv.FormatInt((c.wall - c.stolen).Milliseconds(), 10)
	}
	return strings.Join(parts, " ")
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
