package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/uni"
)

// TestCompleteOverridesMatchFreshCompleter pins the wire answer of
// e-override and traced requests, which run on the snapshot's shared
// Completer with per-search options: data.completions (and the trace,
// when asked for) must be byte-identical to what a fresh
// core.New(schema, opts) with that E computes, for plain and
// constrained queries, under every pruning mode, sequential and
// parallel.
func TestCompleteOverridesMatchFreshCompleter(t *testing.T) {
	s := uni.New()
	modes := []struct {
		name string
		opts core.Options
	}{{"paper", core.Paper()}, {"safe", core.Safe()}, {"exact", core.Exact()}}
	exprs := []string{"ta~name", "department~course", "ta~(grad.*)~name", `ta~(grad.*|instructor.*)~name[self != "zz"]`}
	for _, m := range modes {
		for _, par := range []int{0, 2} {
			opts := m.opts
			opts.Parallel = par
			url := newTS(t, New(s, nil, opts)) + "/v1/complete"
			for _, expr := range exprs {
				// Warm the shared Completer at the default E first, so the
				// overrides below reuse its memoized indexes and automata.
				if resp, body := post(t, url, fmt.Sprintf(`{"expr":%q}`, expr)); resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d: %s", expr, resp.StatusCode, body)
				}
				for _, e := range []int{2, 3} {
					for _, trace := range []bool{false, true} {
						name := fmt.Sprintf("%s/par%d/%s/e%d/trace=%v", m.name, par, expr, e, trace)
						fo := opts
						fo.E = e
						var rec *core.TraceRecorder
						if trace {
							rec = core.NewTraceRecorder(s, 0)
							fo.Tracer = rec
						}
						want, err := core.New(s, fo).Complete(pathexpr.MustParse(expr))
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						wantJSON := make([]CompletionJSON, 0, len(want.Completions))
						for _, c := range want.Completions {
							wantJSON = append(wantJSON, CompletionJSON{Path: c.Path.String(), Conn: c.Label.Conn().String(), SemLen: c.Label.SemLen()})
						}

						resp, body := post(t, url, fmt.Sprintf(`{"expr":%q,"e":%d,"trace":%v}`, expr, e, trace))
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
						}
						var data struct {
							Completions json.RawMessage `json:"completions"`
							Trace       json.RawMessage `json:"trace"`
						}
						if err := json.Unmarshal(decodeEnvelope(t, body).Data, &data); err != nil {
							t.Fatalf("%s: decode data: %v", name, err)
						}
						assertSameJSON(t, name+" completions", data.Completions, wantJSON)
						if trace {
							assertSameJSON(t, name+" trace", data.Trace, rec.Events)
						}
					}
				}
			}
		}
	}
}

// assertSameJSON compares a raw wire member, whitespace aside, with the
// encoding of want.
func assertSameJSON(t *testing.T, what string, got json.RawMessage, want any) {
	t.Helper()
	wantB, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var gotB bytes.Buffer
	if err := json.Compact(&gotB, got); err != nil {
		t.Fatalf("%s: %v in %s", what, err, got)
	}
	if !bytes.Equal(gotB.Bytes(), wantB) {
		t.Errorf("%s differs from a fresh Completer's:\n got: %s\nwant: %s", what, gotB.Bytes(), wantB)
	}
}
