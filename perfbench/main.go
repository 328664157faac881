// Command perfbench is pathcomplete's benchmark: it boots the server
// in process the way pathserve does, drives one seeded workload (hot,
// cold or typing), checks every answer, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line
// of its output. See README.md.
//
//	perfbench --workload hot --seed 1 --seconds 20 --trace 0
//	perfbench compare -parent DIR -change DIR [-bench BENCHMARK.json]
//
// Run it from the repository root (run.sh builds it there).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

var workloads = map[string]func(runCtx) (*result, error){
	"hot":    runHot,
	"cold":   runCold,
	"typing": runTyping,
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "hot, cold or typing")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run := workloads[*workload]
	if run == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload hot|cold|typing, --seconds >= 1, --trace 0|1")
		return 2
	}
	work := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	defer os.RemoveAll(work)
	rc := runCtx{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		work:     work,
	}
	res, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return printResult(os.Stdout, rc, res)
}

// line is the last line of a run's output.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// reportLine precedes the last line: the environment stamp, the
// workload's measured properties and every metric by name and unit.
type reportLine struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Env      map[string]any `json:"env"`
	Details  map[string]any `json:"details"`
}

func printResult(f *os.File, rc runCtx, res *result) int {
	defs, vals := endToEnd, res.e2e
	if rc.traced {
		defs, vals = perLayer, res.layers
	}
	res.report["error_rate"] = ratio(float64(res.failed), float64(res.attempted))
	w := bufio.NewWriter(f)
	for _, d := range defs {
		fmt.Fprintf(w, "%-38s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	for _, k := range sortedKeys(res.report) {
		if v, ok := res.report[k].(float64); ok {
			fmt.Fprintf(w, "%-38s %14.4f\n", k, v)
		}
	}
	rep, err := json.Marshal(map[string]reportLine{"report": {
		Workload: rc.workload, Seed: rc.seed, Trace: rc.traced,
		Seconds: rc.seconds.Seconds(), Env: envStamp(), Details: res.report,
	}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", rep)
	out, err := json.Marshal(line{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   render(defs, vals),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", out)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// envStamp records where a result was measured.
func envStamp() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
