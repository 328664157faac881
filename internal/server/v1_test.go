package server

// Envelope goldens for the /v1 surface: the success shape per
// endpoint, every error code the closed set defines, the deprecation
// contract on the legacy routes, and the closure serving path
// end-to-end (engine=closure on the warm hot path, engine=search on
// every fall-through shape, answers identical either way).

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/uni"
)

// testEnvelope decodes a v1 wire body with the data payload kept raw.
type testEnvelope struct {
	Data  json.RawMessage `json:"data"`
	Error *APIError       `json:"error"`
	Meta  *Meta           `json:"meta"`
}

func decodeEnvelope(t *testing.T, body string) testEnvelope {
	t.Helper()
	var env testEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("v1 body is not an envelope: %v\n%s", err, body)
	}
	if env.Meta == nil {
		t.Fatalf("envelope missing meta: %s", body)
	}
	if env.Meta.DurationMs < 0 {
		t.Errorf("meta.durationMs = %v", env.Meta.DurationMs)
	}
	return env
}

// isNullData reports whether the envelope's data member is JSON null.
func isNullData(d json.RawMessage) bool {
	return len(d) == 0 || string(d) == "null"
}

// waitClosure blocks until the named schema's closure handle settles
// and returns its final status.
func waitClosure(t *testing.T, sv *Server, name string) closure.Status {
	t.Helper()
	sn, err := sv.reg.Acquire(name)
	if err != nil {
		t.Fatalf("Acquire(%q): %v", name, err)
	}
	h := sn.Closure()
	sn.Release()
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("closure build for %q did not settle", name)
	}
	return h.Status()
}

// TestV1CompleteEnvelope pins the success envelope of POST
// /v1/complete: data carries the same CompleteResponse the legacy
// route returns, error is null, and meta names the snapshot and the
// answering engine.
func TestV1CompleteEnvelope(t *testing.T) {
	ts := testServer(t, false)
	resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	env := decodeEnvelope(t, body)
	if env.Error != nil {
		t.Fatalf("error = %+v on success", env.Error)
	}
	var out CompleteResponse
	if err := json.Unmarshal(env.Data, &out); err != nil {
		t.Fatalf("decode data: %v", err)
	}
	want := []CompletionJSON{
		{Path: "ta@>grad@>student@>person.name", Conn: ".", SemLen: 1},
		{Path: "ta@>instructor@>teacher@>employee@>person.name", Conn: ".", SemLen: 1},
	}
	if !reflect.DeepEqual(out.Completions, want) {
		t.Errorf("completions = %+v", out.Completions)
	}
	if env.Meta.Schema != "university" || env.Meta.Generation == 0 {
		t.Errorf("meta = %+v", env.Meta)
	}
	if env.Meta.Engine != engineSearch {
		t.Errorf("meta.engine = %q, want %q (closure not enabled)", env.Meta.Engine, engineSearch)
	}

	// The legacy route returns the identical payload, bare.
	_, legacy := post(t, ts.URL+"/complete", `{"expr":"ta~name"}`)
	var lout CompleteResponse
	if err := json.Unmarshal([]byte(legacy), &lout); err != nil {
		t.Fatalf("decode legacy: %v", err)
	}
	if !reflect.DeepEqual(lout.Completions, out.Completions) {
		t.Errorf("legacy and v1 payloads diverge:\n v1: %+v\n legacy: %+v", out.Completions, lout.Completions)
	}
}

// TestV1SuccessEnvelopes sweeps the remaining endpoints' success
// shapes: batch, evaluate, the schema listing, and the per-schema
// detail with its SDL and closure status.
func TestV1SuccessEnvelopes(t *testing.T) {
	ts := testServer(t, true) // with store, so /v1/evaluate works

	t.Run("completeBatch", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/completeBatch", `{"queries":[{"expr":"ta~name"},{"expr":"student~office"}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
		env := decodeEnvelope(t, body)
		var out BatchResponse
		if err := json.Unmarshal(env.Data, &out); err != nil {
			t.Fatalf("decode data: %v", err)
		}
		if len(out.Results) != 2 {
			t.Errorf("results = %d", len(out.Results))
		}
		if env.Meta.Schema != "university" || env.Meta.Generation == 0 {
			t.Errorf("meta = %+v", env.Meta)
		}
	})

	t.Run("evaluate", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/evaluate", `{"expr":"ta~name","approve":[0]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
		env := decodeEnvelope(t, body)
		var out EvaluateResponse
		if err := json.Unmarshal(env.Data, &out); err != nil {
			t.Fatalf("decode data: %v", err)
		}
		if len(out.Chosen) != 1 || !reflect.DeepEqual(out.Values, []any{"Yezdi"}) {
			t.Errorf("evaluate = %+v", out)
		}
	})

	t.Run("schemas", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/schemas")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env testEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decode: %v", err)
		}
		var out SchemasResponse
		if err := json.Unmarshal(env.Data, &out); err != nil {
			t.Fatalf("decode data: %v", err)
		}
		if len(out.Schemas) != 1 || out.Schemas[0].Name != "university" || !out.Schemas[0].Default {
			t.Errorf("schemas = %+v", out.Schemas)
		}
		if out.Schemas[0].Closure != string(closure.StateDisabled) {
			t.Errorf("closure state = %q, want disabled", out.Schemas[0].Closure)
		}
	})

	t.Run("schemaByName", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/schemas/university")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env testEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decode: %v", err)
		}
		var out SchemaDetailJSON
		if err := json.Unmarshal(env.Data, &out); err != nil {
			t.Fatalf("decode data: %v", err)
		}
		if out.Name != "university" || !strings.Contains(out.SDL, "isa student person") {
			t.Errorf("detail = %+v", out)
		}
		if out.ClosureStatus.State != closure.StateDisabled {
			t.Errorf("closureStatus = %+v", out.ClosureStatus)
		}
		if env.Meta.Schema != "university" {
			t.Errorf("meta = %+v", env.Meta)
		}
	})
}

// TestV1ErrorEnvelopes drives every reachable error code and requires
// the uniform envelope: data null, error {code, message}, meta with
// durationMs.
func TestV1ErrorEnvelopes(t *testing.T) {
	sv, ts := newTestSrv(t, uni.New())

	check := func(t *testing.T, body string, status, wantStatus int, wantCode string) {
		t.Helper()
		if status != wantStatus {
			t.Fatalf("status = %d, want %d: %s", status, wantStatus, body)
		}
		env := decodeEnvelope(t, body)
		if !isNullData(env.Data) {
			t.Errorf("data = %s on error", env.Data)
		}
		if env.Error == nil || env.Error.Code != wantCode {
			t.Errorf("error = %+v, want code %q", env.Error, wantCode)
		}
		if env.Error != nil && env.Error.Message == "" {
			t.Error("error.message empty")
		}
	}

	t.Run("bad_request/malformed body", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/complete", `{"expr":`)
		check(t, body, resp.StatusCode, http.StatusBadRequest, CodeBadRequest)
	})
	t.Run("bad_request/unparsable expr", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"~~~"}`)
		check(t, body, resp.StatusCode, http.StatusBadRequest, CodeBadRequest)
	})
	t.Run("bad_request/unresolvable root 422", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"nosuchclass~name"}`)
		check(t, body, resp.StatusCode, http.StatusUnprocessableEntity, CodeBadRequest)
	})
	t.Run("unknown_schema", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/complete?schema=nope", `{"expr":"ta~name"}`)
		check(t, body, resp.StatusCode, http.StatusNotFound, CodeUnknownSchema)
	})
	t.Run("unknown_schema/detail", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/schemas/nope")
		if err != nil {
			t.Fatal(err)
		}
		check(t, readAll(t, resp), resp.StatusCode, http.StatusNotFound, CodeUnknownSchema)
	})
	t.Run("bad_request/reload without dir 409", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/schemas/reload", `{}`)
		check(t, body, resp.StatusCode, http.StatusConflict, CodeBadRequest)
	})
	t.Run("overloaded", func(t *testing.T) {
		sv.SetLimits(Limits{MaxConcurrent: 1, MaxQueue: -1})
		if sv.gate.acquire(context.Background()) != admitOK {
			t.Fatal("could not occupy the only admission slot")
		}
		defer sv.gate.release()
		resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
		check(t, body, resp.StatusCode, http.StatusTooManyRequests, CodeOverloaded)
		if resp.Header.Get("Retry-After") != "1" {
			t.Errorf("Retry-After = %q", resp.Header.Get("Retry-After"))
		}
	})
}

// readAll drains a response body into a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestLegacyDeprecation: every legacy route answers with the
// Deprecation header and its v1 successor Link, counts into the
// deprecation metric, and keeps returning its legacy payload; the v1
// routes carry neither header.
func TestLegacyDeprecation(t *testing.T) {
	sv, ts := newTestSrv(t, uni.New())
	for route, succ := range deprecatedSuccessor {
		var resp *http.Response
		switch route {
		case "/complete", "/completeBatch", "/evaluate", "/schemas/reload":
			resp, _ = post(t, ts.URL+route, `{"expr":"ta~name"}`)
		default:
			r, err := http.Get(ts.URL + route)
			if err != nil {
				t.Fatalf("GET %s: %v", route, err)
			}
			r.Body.Close()
			resp = r
		}
		if got := resp.Header.Get("Deprecation"); got != "true" {
			t.Errorf("%s: Deprecation = %q, want \"true\"", route, got)
		}
		wantLink := "<" + succ + `>; rel="successor-version"`
		if got := resp.Header.Get("Link"); got != wantLink {
			t.Errorf("%s: Link = %q, want %q", route, got, wantLink)
		}
		// The default mode is warn: the retirement date is announced.
		if got := resp.Header.Get("Sunset"); got != LegacySunset {
			t.Errorf("%s: Sunset = %q, want %q", route, got, LegacySunset)
		}
		if got := sv.met.deprecated.With(route).Value(); got != 1 {
			t.Errorf("%s: deprecation count = %d, want 1", route, got)
		}
	}

	// The versioned surface is not deprecated.
	resp, _ := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	if resp.Header.Get("Deprecation") != "" || resp.Header.Get("Link") != "" {
		t.Errorf("/v1/complete carries deprecation headers: %q %q",
			resp.Header.Get("Deprecation"), resp.Header.Get("Link"))
	}
}

// TestV1ClosureServing: with warming enabled, the single-gap hot path
// answers from the index (meta.engine = "closure", hit metric), every
// fall-through shape reports engine = "search", and the two engines'
// answers are identical. Each row pins the planner's reason and the
// exact closure hit/miss/fallback deltas that reason moves.
func TestV1ClosureServing(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	sv.EnableClosure(1, 1<<30)
	ts := newTS(t, sv)
	if st := waitClosure(t, sv, ""); st.State != closure.StateReady {
		t.Fatalf("closure = %+v, want ready", st)
	}
	cold := New(uni.New(), nil, core.Exact()) // closure never enabled
	coldTS := newTS(t, cold)

	var closureOut CompleteResponse
	for _, tc := range []struct {
		name, body string
		cold       bool // served by the closure-off server
		status     int
		engine     string
		reason     planReason
		hits       uint64
		misses     uint64
		fallbacks  uint64
	}{
		{"hit", `{"expr":"ta~name"}`, false, 200, engineClosure, reasonHit, 1, 0, 0},
		{"default e", `{"expr":"ta~name","e":1}`, false, 200, engineClosure, reasonHit, 1, 0, 0},
		{"traced", `{"expr":"ta~name","trace":true}`, false, 200, engineSearch, reasonTrace, 0, 0, 1},
		{"budgeted", `{"expr":"ta~name","timeoutMs":5000}`, false, 200, engineSearch, reasonBudget, 0, 0, 1},
		{"e-override", `{"expr":"ta~name","e":2}`, false, 200, engineSearch, reasonEOverride, 0, 0, 1},
		{"multi-gap", `{"expr":"ta~name.self"}`, false, 200, engineSearch, reasonShape, 0, 0, 1},
		{"complete expr", `{"expr":"ta@>grad@>student@>person.name"}`, false, 200, engineSearch, reasonShape, 0, 0, 1},
		{"constrained", `{"expr":"ta~(.*)~name"}`, false, 200, engineSearch, reasonConstrained, 0, 0, 1},
		{"predicated", `{"expr":"ta~name[self != \"zz\"]"}`, false, 200, engineSearch, reasonConstrained, 0, 0, 1},
		{"unknown root", `{"expr":"nosuchclass~name"}`, false, 422, "", reasonCellMissing, 0, 1, 0},
		{"unknown anchor", `{"expr":"ta~nosuchattr"}`, false, 422, "", reasonCellMissing, 0, 1, 0},
		{"index not ready", `{"expr":"ta~name"}`, true, 200, engineSearch, reasonNotReady, 0, 1, 0},
		{"index not ready, traced", `{"expr":"ta~name","trace":true}`, true, 200, engineSearch, reasonTrace, 0, 0, 1},
	} {
		srv, url := sv, ts
		if tc.cold {
			srv, url = cold, coldTS
		}
		m := srv.met
		h0, m0, f0 := m.closureHits.Value(), m.closureMisses.Value(), m.closureFallbacks.Value()
		resp, body := post(t, url+"/v1/complete", tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status = %d, want %d: %s", tc.name, resp.StatusCode, tc.status, body)
		}
		if d := [3]uint64{m.closureHits.Value() - h0, m.closureMisses.Value() - m0, m.closureFallbacks.Value() - f0}; d != [3]uint64{tc.hits, tc.misses, tc.fallbacks} {
			t.Errorf("%s: closure hit/miss/fallback deltas = %v, want %v", tc.name, d, [3]uint64{tc.hits, tc.misses, tc.fallbacks})
		}
		var req CompleteRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatal(err)
		}
		sn, err := srv.reg.Acquire("")
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := srv.plan(context.Background(), sn, &req, pathexpr.MustParse(req.Expr)); p.reason != tc.reason {
			t.Errorf("%s: plan reason = %q, want %q", tc.name, p.reason, tc.reason)
		}
		sn.Release()
		if tc.status != http.StatusOK {
			continue
		}
		env := decodeEnvelope(t, body)
		if env.Meta.Engine != tc.engine {
			t.Errorf("%s: meta.engine = %q, want %q", tc.name, env.Meta.Engine, tc.engine)
		}
		var out CompleteResponse
		if err := json.Unmarshal(env.Data, &out); err != nil {
			t.Fatal(err)
		}
		switch tc.name {
		case "hit":
			closureOut = out
		case "traced", "budgeted", "index not ready":
			if !reflect.DeepEqual(out.Completions, closureOut.Completions) {
				t.Errorf("%s: search answer diverges from closure answer:\n search: %+v\n closure: %+v",
					tc.name, out.Completions, closureOut.Completions)
			}
		}
	}

	// The data payload also names the engine.
	if closureOut.Engine != engineClosure {
		t.Errorf("data.engine = %q, want %q", closureOut.Engine, engineClosure)
	}

	// /stats exposes the budget and the per-schema closure status.
	r2, err := http.Get(ts + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.Unmarshal([]byte(readAll(t, r2)), &stats); err != nil {
		t.Fatal(err)
	}
	cl, ok := stats["closure"].(map[string]any)
	if !ok || cl["state"] != "ready" {
		t.Errorf("stats.closure = %v", stats["closure"])
	}
	if _, ok := stats["closureBudget"].(map[string]any); !ok {
		t.Errorf("stats.closureBudget = %v", stats["closureBudget"])
	}
}

// newTS wraps a server in a test listener.
func newTS(t *testing.T, sv *Server) string {
	t.Helper()
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}
