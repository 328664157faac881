package main

import (
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"
)

// perturbOnce alters the first expected answer the gate asks about by
// appending a completion nobody returns.
func perturbOnce() func(int, []byte) []byte {
	var once sync.Once
	return func(_ int, want []byte) []byte {
		out := want
		once.Do(func() {
			var cs []map[string]any
			if json.Unmarshal(want, &cs) != nil {
				return
			}
			cs = append(cs, map[string]any{"path": "no~such", "conn": ".", "semlen": 1})
			out, _ = json.Marshal(cs)
		})
		return out
	}
}

func shortRun(t *testing.T, workload string, perturb func(int, []byte) []byte) *result {
	t.Helper()
	rc := runCtx{
		workload: workload,
		seed:     7,
		seconds:  time.Second,
		work:     t.TempDir(),
		perturb:  perturb,
	}
	res, err := workloads[workload](rc)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if res.attempted == 0 {
		t.Fatalf("%s: nothing attempted", workload)
	}
	return res
}

func TestGateAcceptsCorrectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server")
	}
	res := shortRun(t, "hot", nil)
	if res.failed != 0 {
		t.Fatalf("hot: %d of %d operations failed on an unperturbed run", res.failed, res.attempted)
	}
}

func TestGateFailsPerturbedAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server")
	}
	for _, wl := range []string{"hot", "typing"} {
		res := shortRun(t, wl, perturbOnce())
		if res.failed == 0 {
			t.Errorf("%s: the gate passed a run whose expected answer was perturbed", wl)
		}
	}
}

func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

func TestCompletionsSection(t *testing.T) {
	body := []byte(`{
  "data": {
    "expr": "a~b[self != \"]\"]",
    "completions": [
      {
        "path": "a.x[self != \"]\\\"\"]",
        "semlen": 1
      }
    ],
    "calls": 3
  }
}`)
	sec := completionsSection(body)
	cs, err := decodeCompletions(sec)
	if err != nil {
		t.Fatalf("section %q: %v", sec, err)
	}
	if len(cs) != 1 || cs[0].Path != `a.x[self != "]\""]` || cs[0].SemLen != 1 {
		t.Fatalf("got %+v", cs)
	}
	null := completionsSection([]byte("{\n  \"completions\": null,\n  \"calls\": 0\n}"))
	if cs, err := decodeCompletions(null); err != nil || len(cs) != 0 {
		t.Fatalf("null section %q: %v %v", null, cs, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("got %v %v %v", q1, med, q3)
	}
}
