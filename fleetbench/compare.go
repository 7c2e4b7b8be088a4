package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// The compare mode reads result sets — directories holding the standard
// output of benchmark runs, one file per run — and prints one row per
// workload and metric: median and quartiles of each set, and with two sets
// the fraction of seed-matched pairs the change wins and a verdict under
// the bounds in BENCHMARK.json.

// runOutput is one parsed benchmark output.
type runOutput struct {
	workload string
	seed     int64
	machine  string
	res      result
}

func parseRun(r io.Reader) (runOutput, error) {
	var out runOutput
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# fleetbench "); ok {
			for _, field := range strings.Fields(rest) {
				k, v, _ := strings.Cut(field, "=")
				switch k {
				case "workload":
					out.workload = v
				case "seed":
					out.seed, _ = strconv.ParseInt(v, 10, 64)
				}
			}
		}
		if rest, ok := strings.CutPrefix(line, "# machine "); ok {
			out.machine = rest
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if out.workload == "" {
		return out, fmt.Errorf("no '# fleetbench' header line")
	}
	if err := json.Unmarshal([]byte(last), &out.res); err != nil {
		return out, fmt.Errorf("last line is not a result: %w", err)
	}
	return out, nil
}

func loadSet(dir string) ([]runOutput, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []runOutput
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		r, err := parseRun(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", dir)
	}
	return runs, nil
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type bound struct {
	better string
	bound  float64 // 0: none
}

func loadBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = bound{m.Better, m.Bound}
	}
	for _, m := range spec.PerLayer {
		out[m.Name] = bound{better: m.Better}
	}
	return out, nil
}

// quartiles returns the three cut points of vals as Python's
// statistics.quantiles(vals, n=4) gives them (the exclusive method).
func quartiles(vals []float64) [3]float64 {
	d := slices.Clone(vals)
	slices.Sort(d)
	ld := len(d)
	var q [3]float64
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// row summarizes one workload's metric over a base set and, optionally, a
// change set.
type row struct {
	workload, metric, unit string
	base, change           []float64
	bound                  bound
	wins, pairs            int
}

// spread is the quartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return math.Abs(q[2]-q[0]) / math.Abs(q[1])
}

// better reports whether a beats b in the metric's direction.
func (r *row) better(a, b float64) bool {
	if r.bound.better == "higher" {
		return a > b
	}
	return a < b
}

// verdict applies the choosing-metrics rules: a gain needs nine tenths of
// the pairs and a median shift beyond the base's own quartile distance; a
// spread wider than the bound leaves the metric unresolved unless every
// change run beats every base run; otherwise the change may be worse than
// the base median by at most the bound.
func (r *row) verdict() string {
	qb := quartiles(r.base)
	if r.change == nil {
		switch s := spread(qb); {
		case r.bound.bound == 0:
			return "no bound"
		case s > r.bound.bound:
			return "unsteady"
		case s > r.bound.bound/3:
			return "steady (above bound/3)"
		}
		return "steady"
	}
	qc := quartiles(r.change)
	if r.pairs > 0 && float64(r.wins) >= 0.9*float64(r.pairs) && r.better(qc[1], qb[1]) &&
		math.Abs(qc[1]-qb[1]) > math.Abs(qb[2]-qb[0]) {
		return "better"
	}
	if r.bound.bound == 0 {
		if qc[1] == qb[1] {
			return "same"
		}
		return "changed (no bound)"
	}
	allBetter := slices.Max(r.change) < slices.Min(r.base)
	if r.bound.better == "higher" {
		allBetter = slices.Min(r.change) > slices.Max(r.base)
	}
	if max(spread(qb), spread(qc)) > r.bound.bound && !allBetter {
		return "unresolved"
	}
	worse := qc[1] - qb[1]
	if r.bound.better == "higher" {
		worse = -worse
	}
	if worse > r.bound.bound*math.Abs(qb[1]) {
		return "worse"
	}
	return "within bound"
}

func compareMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "BENCHMARK.json with the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		return fmt.Errorf("usage: compare [-bench BENCHMARK.json] <base-dir> [<change-dir>]")
	}
	bounds, err := loadBounds(*benchPath)
	if err != nil {
		return err
	}
	var sets [][]runOutput
	for _, dir := range fs.Args() {
		runs, err := loadSet(dir)
		if err != nil {
			return err
		}
		sets = append(sets, runs)
	}
	return compare(sets, bounds, out)
}

func compare(sets [][]runOutput, bounds map[string]bound, out io.Writer) error {
	for i, runs := range sets {
		machines := map[string]bool{}
		for _, r := range runs {
			machines[r.machine] = true
		}
		for _, m := range slices.Sorted(maps.Keys(machines)) {
			fmt.Fprintf(out, "# set %d machine %s\n", i+1, m)
		}
		for _, r := range runs {
			if !r.res.Correct {
				fmt.Fprintf(out, "# set %d: WARNING: workload %s seed %d failed its output checks\n", i+1, r.workload, r.seed)
			}
		}
	}
	rows := buildRows(sets, bounds)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	head := "workload\tmetric\tunit\tbase median [q1, q3]\tspread"
	if len(sets) == 2 {
		head += "\tchange median [q1, q3]\tspread\tchange\twins"
	}
	fmt.Fprintln(tw, head+"\tbound\tverdict")
	for _, r := range rows {
		qb := quartiles(r.base)
		line := fmt.Sprintf("%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.1f%%", r.workload, r.metric, r.unit, qb[1], qb[0], qb[2], 100*spread(qb))
		if r.change != nil {
			qc := quartiles(r.change)
			delta := 0.0
			if qb[1] != 0 {
				delta = 100 * (qc[1] - qb[1]) / math.Abs(qb[1])
			}
			line += fmt.Sprintf("\t%.6g [%.6g, %.6g]\t%.1f%%\t%+.1f%%\t%d/%d", qc[1], qc[0], qc[2], 100*spread(qc), delta, r.wins, r.pairs)
		} else if len(sets) == 2 {
			line += "\t-\t-\t-\t-"
		}
		b := "-"
		if r.bound.bound > 0 {
			b = fmt.Sprintf("%.0f%%", 100*r.bound.bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", line, b, r.verdict())
	}
	return tw.Flush()
}

// buildRows groups the runs by workload and metric. Change runs are paired
// with base runs of the same seed for the win fraction.
func buildRows(sets [][]runOutput, bounds map[string]bound) []row {
	type key struct{ workload, metric string }
	byKey := map[key]*row{}
	var keys []key
	for si, runs := range sets {
		for _, r := range runs {
			for name, m := range r.res.Metrics {
				k := key{r.workload, name}
				rw := byKey[k]
				if rw == nil {
					rw = &row{workload: r.workload, metric: name, unit: m.Unit, bound: bounds[name]}
					byKey[k] = rw
					keys = append(keys, k)
				}
				if si == 0 {
					rw.base = append(rw.base, m.Value)
				} else {
					rw.change = append(rw.change, m.Value)
				}
			}
		}
	}
	if len(sets) == 2 {
		base := map[key]map[int64]float64{}
		for _, r := range sets[0] {
			for name, m := range r.res.Metrics {
				k := key{r.workload, name}
				if base[k] == nil {
					base[k] = map[int64]float64{}
				}
				base[k][r.seed] = m.Value
			}
		}
		for _, r := range sets[1] {
			for name, m := range r.res.Metrics {
				k := key{r.workload, name}
				b, ok := base[k][r.seed]
				if !ok {
					continue
				}
				rw := byKey[k]
				rw.pairs++
				if rw.better(m.Value, b) {
					rw.wins++
				}
			}
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := strings.Compare(a.workload, b.workload); c != 0 {
			return c
		}
		return strings.Compare(a.metric, b.metric)
	})
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		if byKey[k].base != nil {
			rows = append(rows, *byKey[k])
		}
	}
	return rows
}
