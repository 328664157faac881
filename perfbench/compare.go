package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Compare mode: given the saved outputs of runs of a parent commit and
// of a change (one file per run, the run's standard output), print for
// each workload and end-to-end metric both medians with their
// quartiles, the share of seed-matched pairs the change won, and a
// verdict under the bounds in BENCHMARK.json:
//
//	improved    the change won >= 9/10 of the pairs and the medians differ
//	            by more than the parent's own quartile spread
//	no worse    the change's median is within the bound of the parent's
//	worse       outside the bound and the change lost >= 9/10 of the pairs
//	unresolved  anything else

type runFile struct {
	workload string
	seed     int64
	trace    bool
	metrics  map[string]metricValue
}

type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	parent := fs.String("parent", "", "directory of the parent's run outputs")
	change := fs.String("change", "", "directory of the change's run outputs")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "perfbench compare: need -parent DIR and -change DIR")
		return 2
	}
	var bf benchFile
	data, err := os.ReadFile(*bench)
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	pr, err := loadRuns(*parent)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	ch, err := loadRuns(*change)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-8s %-16s %12s %25s %12s %25s %6s  %s\n",
		"workload", "metric", "parent", "parent q1..q3", "change", "change q1..q3", "won", "verdict")
	for _, wl := range workloadNames(pr, ch) {
		for _, m := range bf.EndToEnd {
			c := compareMetric(pr[wl], ch[wl], m.Name, m.Better, m.Bound)
			if c.n == 0 {
				continue
			}
			won := "     -" // no seed-matched pairs
			if c.pairs > 0 {
				won = fmt.Sprintf("%5.0f%%", 100*c.won)
			}
			fmt.Fprintf(w, "%-8s %-16s %12.4f %12.4f..%-12.4f %12.4f %12.4f..%-12.4f %s  %s\n",
				wl, m.Name, c.pMed, c.pQ1, c.pQ3, c.cMed, c.cQ1, c.cQ3, won, c.verdict)
		}
	}
	if err := w.Flush(); err != nil {
		return 1
	}
	return 0
}

// loadRuns reads every file in dir as one run's output, keeping the
// untraced runs, grouped by workload.
func loadRuns(dir string) (map[string][]runFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]runFile{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		r, err := parseRun(filepath.Join(dir, e.Name()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: skipping %s: %v\n", e.Name(), err)
			continue
		}
		if !r.trace {
			out[r.workload] = append(out[r.workload], r)
		}
	}
	return out, nil
}

// parseRun reads the report line and the last line of one run output.
func parseRun(path string) (runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return runFile{}, err
	}
	var r runFile
	var last string
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		last = l
		var rep map[string]reportLine
		if strings.HasPrefix(l, `{"report":`) && json.Unmarshal([]byte(l), &rep) == nil {
			r.workload, r.seed, r.trace = rep["report"].Workload, rep["report"].Seed, rep["report"].Trace
		}
	}
	var ln line
	if err := json.Unmarshal([]byte(last), &ln); err != nil {
		return runFile{}, fmt.Errorf("last line is not a result: %w", err)
	}
	if r.workload == "" {
		return runFile{}, fmt.Errorf("no report line")
	}
	r.metrics = ln.Metrics
	return r, nil
}

func workloadNames(a, b map[string][]runFile) []string {
	set := map[string]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	return sortedKeys(set)
}

type comparison struct {
	n              int
	pMed, pQ1, pQ3 float64
	cMed, cQ1, cQ3 float64
	won            float64 // share of pairs the change won
	pairs          int
	verdict        string
}

func compareMetric(parent, change []runFile, name, better string, bound float64) comparison {
	pv := values(parent, name)
	cv := values(change, name)
	if len(pv) == 0 || len(cv) == 0 {
		return comparison{}
	}
	c := comparison{n: len(pv)}
	c.pQ1, c.pMed, c.pQ3 = quartiles(pv)
	c.cQ1, c.cMed, c.cQ3 = quartiles(cv)
	sign := 1.0 // > 0: the change is better
	if better == "lower" {
		sign = -1
	}
	// Pairs share a seed; runs without a partner are left out.
	bySeed := map[int64]float64{}
	for _, r := range parent {
		if v, ok := r.metrics[name]; ok {
			bySeed[r.seed] = v.Value
		}
	}
	wins, losses, pairs := 0, 0, 0
	for _, r := range change {
		p, ok := bySeed[r.seed]
		v, ok2 := r.metrics[name]
		if !ok || !ok2 {
			continue
		}
		pairs++
		switch d := sign * (v.Value - p); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	c.pairs = pairs
	c.won = ratio(float64(wins), float64(pairs))
	delta := sign * (c.cMed - c.pMed) // > 0: better
	spread := c.pQ3 - c.pQ1
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(delta) > spread && delta > 0:
		c.verdict = "improved"
	case spread > bound*math.Abs(c.pMed):
		// The parent's own runs spread wider than the bound: no claim
		// of "unchanged" can be made.
		c.verdict = "unresolved"
	case -delta <= bound*math.Abs(c.pMed):
		c.verdict = "no worse"
	case pairs > 0 && float64(losses) >= 0.9*float64(pairs):
		c.verdict = "worse"
	default:
		c.verdict = "unresolved"
	}
	return c
}

func values(runs []runFile, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles returns q1, median, q3 the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(p float64) float64 {
		m := float64(len(s) + 1)
		j := int(math.Floor(p * m))
		delta := p*m - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return q(0.25), q(0.5), q(0.75)
}
