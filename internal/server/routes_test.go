package server

// The route-independence differential: an answer depends only on the
// schema generation, the query and its E — never on which engine,
// store or route served it. Every route's completions are checked
// byte for byte against a fresh Completer's and against each other.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/objstore"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/session"
	"pathcomplete/internal/session/sessiontest"
	"pathcomplete/internal/uni"
)

// routeCorpus is one schema and the expressions run against it.
type routeCorpus struct {
	name  string
	s     *schema.Schema
	store *objstore.Store // nil: /v1/evaluate is not served
	exprs []string
}

// cupidCorpus derives expressions of every planned shape from the
// simulated designer's queries on a CUPID-generated schema (24
// classes: the all-pairs closure of the 92-class default takes longer
// to build than a unit test should wait, under -race): the plain
// single gap, a degenerate and a prefix regex constraint, a predicate,
// a two-gap form and an anchor-then-explicit form (last step not a
// gap), the last two cut from the designer's intended path.
func cupidCorpus(t *testing.T) routeCorpus {
	t.Helper()
	w, err := cupid.Generate(cupid.Config{Seed: 1994, Classes: 24, RelPairs: 48, Hubs: 1, HubFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := cupid.NewOracle(w, 7).Queries(3)
	if err != nil {
		t.Fatal(err)
	}
	c := routeCorpus{name: "cupid", s: w.Schema}
	for _, q := range qs {
		root, anchor := q.Expr.Root, q.Expr.Steps[0].Name
		c.exprs = append(c.exprs,
			q.Expr.String(),
			fmt.Sprintf("%s~(.*)~%s", root, anchor),
			fmt.Sprintf("%s~(%s.*)~%s", root, root[:1], anchor),
			fmt.Sprintf(`%s~%s[self != "zz"]`, root, anchor))
		in := pathexpr.MustParse(q.Intended[0])
		if len(in.Steps) < 3 {
			continue
		}
		mid := len(in.Steps) / 2
		tail := strings.TrimPrefix(pathexpr.Expr{Root: "_", Steps: in.Steps[mid+1:]}.String(), "_")
		c.exprs = append(c.exprs,
			fmt.Sprintf("%s~%s~%s", root, in.Steps[mid].Name, anchor),
			fmt.Sprintf("%s~%s%s", root, in.Steps[mid].Name, tail))
	}
	return c
}

// TestRouteIndependence runs every corpus expression at the default E
// and at e = 2, 3 through each way the server can answer it — closure
// hit, cache hit and fresh search (closure on and off), traced search,
// a /v1/completeBatch item, /v1/explain, /v1/evaluate's approve-all
// chosen set and a session's final frame — and requires one answer.
// An unknown root must fail identically everywhere.
func TestRouteIndependence(t *testing.T) {
	store := uni.SampleStore()
	corpora := []routeCorpus{
		{name: "uni", s: store.Schema(), store: store, exprs: []string{
			"ta~name", "student~name", "department~course", "ta~name.self",
			"department~teach.name", "ta~teacher~name", "ta~(grad.*)~name",
			`ta~name[self != "zz"]`, `ta~(grad.*|instructor.*)~name[self != "zz"]`,
			"ta@>grad@>student@>person.name",
		}},
		cupidCorpus(t),
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			on := New(c.s, c.store, core.Exact())
			on.EnableClosure(1, 1<<30)
			onURL := newTS(t, on)
			if st := waitClosure(t, on, ""); st.State != closure.StateReady {
				t.Fatalf("closure = %+v, want ready", st)
			}
			offURL := newTS(t, New(c.s, c.store, core.Exact()))
			sess, err := sessiontest.Dial(onURL+"/v1/sessions", 10*time.Second)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer sess.Close()
			for _, expr := range c.exprs {
				for _, e := range []int{0, 2, 3} {
					r := routeRun{t: t, name: fmt.Sprintf("%s/e=%d", expr, e), expr: expr, e: e, on: onURL, off: offURL}
					r.check(c, sess)
				}
			}
			t.Run("unknown root", func(t *testing.T) {
				r := routeRun{t: t, name: "unknown root", expr: "nosuchclass~name", on: onURL, off: offURL}
				r.checkError(c, sess)
			})
		})
	}
}

// routeRun is one (expression, E) pair run through every route.
type routeRun struct {
	t       *testing.T
	name    string
	expr    string
	e       int
	on, off string // closure-on and closure-off servers
}

// body is the /v1/complete request body for the pair plus extra
// members.
func (r routeRun) body(extra string) string {
	return fmt.Sprintf(`{"expr":%q,"e":%d%s}`, r.expr, r.e, extra)
}

// complete posts to /v1/complete and returns the envelope, requiring
// 200.
func (r routeRun) complete(base, extra string) testEnvelope {
	r.t.Helper()
	resp, body := post(r.t, base+"/v1/complete", r.body(extra))
	if resp.StatusCode != http.StatusOK {
		r.t.Fatalf("%s: /v1/complete%s: status %d: %s", r.name, extra, resp.StatusCode, body)
	}
	return decodeEnvelope(r.t, body)
}

// completionsOf returns a data payload's raw completions member,
// compacted.
func (r routeRun) completionsOf(data json.RawMessage) []byte {
	r.t.Helper()
	var d struct {
		Completions json.RawMessage `json:"completions"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		r.t.Fatalf("%s: decode data: %v", r.name, err)
	}
	var b bytes.Buffer
	if err := json.Compact(&b, d.Completions); err != nil {
		r.t.Fatalf("%s: %v in %s", r.name, err, d.Completions)
	}
	return b.Bytes()
}

func (r routeRun) check(c routeCorpus, sess *sessiontest.Client) {
	t := r.t
	opts := core.Exact()
	if r.e > 0 {
		opts.E = r.e
	}
	want, err := core.New(c.s, opts).Complete(pathexpr.MustParse(r.expr))
	if err != nil {
		t.Fatalf("%s: fresh Completer: %v", r.name, err)
	}
	oracle := make([]CompletionJSON, 0, len(want.Completions))
	for _, cc := range want.Completions {
		oracle = append(oracle, CompletionJSON{Path: cc.Path.String(), Conn: cc.Label.Conn().String(), SemLen: cc.Label.SemLen()})
	}
	same := func(route string, got []CompletionJSON) {
		t.Helper()
		if got == nil {
			got = []CompletionJSON{}
		}
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(oracle)
		if !bytes.Equal(g, w) {
			t.Errorf("%s: %s completions differ from a fresh Completer's:\n got: %s\nwant: %s", r.name, route, g, w)
		}
	}

	// The closure-off fresh search is the wire reference; every
	// /v1/complete-shaped route must match its bytes.
	fresh := r.complete(r.off, "")
	ref := r.completionsOf(fresh.Data)
	var refList []CompletionJSON
	if err := json.Unmarshal(ref, &refList); err != nil {
		t.Fatal(err)
	}
	same("fresh search", refList)
	wire := func(route string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: %s data.completions differ from the fresh search's:\n got: %s\nwant: %s", r.name, route, got, ref)
		}
	}
	cached := r.complete(r.off, "")
	if !cached.Meta.CacheHit {
		t.Errorf("%s: repeat on the closure-off server missed the cache", r.name)
	}
	wire("cache hit (closure off)", r.completionsOf(cached.Data))
	first, second := r.complete(r.on, ""), r.complete(r.on, "")
	p := pathexpr.MustParse(r.expr)
	closurePlanned := r.e == 0 && len(p.Steps) == 1 && p.Steps[0].Gap && !exprConstrained(p)
	if closurePlanned && (first.Meta.Engine != engineClosure || second.Meta.Engine != engineClosure) {
		t.Errorf("%s: closure-on engines = %q, %q, want closure", r.name, first.Meta.Engine, second.Meta.Engine)
	}
	if !closurePlanned && !second.Meta.CacheHit {
		t.Errorf("%s: repeat on the closure-on server missed the cache", r.name)
	}
	wire("closure-on first", r.completionsOf(first.Data))
	wire("closure-on repeat", r.completionsOf(second.Data))
	wire("traced search", r.completionsOf(r.complete(r.on, `,"trace":true`).Data))

	resp, body := post(t, r.on+"/v1/completeBatch", `{"queries":[`+r.body("")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: batch: status %d: %s", r.name, resp.StatusCode, body)
	}
	var batch struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(decodeEnvelope(t, body).Data, &batch); err != nil || len(batch.Results) != 1 {
		t.Fatalf("%s: batch data: %v %s", r.name, err, body)
	}
	wire("batch item", r.completionsOf(batch.Results[0]))

	var ex ExplainResponse
	if err := json.Unmarshal(r.explain(http.StatusOK).Data, &ex); err != nil {
		t.Fatal(err)
	}
	var exList []CompletionJSON
	for _, cc := range ex.Completions {
		exList = append(exList, CompletionJSON{Path: cc.Path, Conn: cc.Conn, SemLen: cc.SemLen})
	}
	same("explain", exList)

	if c.store != nil {
		var ev EvaluateResponse
		if err := json.Unmarshal(r.evaluate(http.StatusOK).Data, &ev); err != nil {
			t.Fatal(err)
		}
		paths := make([]string, 0, len(oracle))
		for _, cc := range oracle {
			paths = append(paths, cc.Path)
		}
		if strings.Join(ev.Chosen, "\n") != strings.Join(paths, "\n") {
			t.Errorf("%s: evaluate chosen = %q, want %q", r.name, ev.Chosen, paths)
		}
	}

	// Sessions search at the server default E. A gap-final keystroke is
	// answered by the frontier, which merges the cells of every anchor
	// the typed prefix can still become, so only the other shapes are
	// one-shot queries to compare.
	if r.e == 0 && !p.Steps[len(p.Steps)-1].Gap {
		final := sess.Type(t, r.expr)[0].Final
		var sl []CompletionJSON
		for _, cc := range final.Completions {
			sl = append(sl, CompletionJSON{Path: cc.Path, Conn: cc.Conn, SemLen: cc.SemLen})
		}
		same("session final", sl)
	}
}

// explain GETs /v1/explain for the pair, requiring status.
func (r routeRun) explain(status int) testEnvelope {
	r.t.Helper()
	q := url.Values{"expr": {r.expr}}
	if r.e > 0 {
		q.Set("e", fmt.Sprint(r.e))
	}
	resp, err := http.Get(r.on + "/v1/explain?" + q.Encode())
	if err != nil {
		r.t.Fatal(err)
	}
	body := readAll(r.t, resp)
	if resp.StatusCode != status {
		r.t.Fatalf("%s: explain: status %d, want %d: %s", r.name, resp.StatusCode, status, body)
	}
	return decodeEnvelope(r.t, body)
}

// evaluate posts the pair to /v1/evaluate (approve-all), requiring
// status.
func (r routeRun) evaluate(status int) testEnvelope {
	r.t.Helper()
	resp, body := post(r.t, r.on+"/v1/evaluate", r.body(""))
	if resp.StatusCode != status {
		r.t.Fatalf("%s: evaluate: status %d, want %d: %s", r.name, resp.StatusCode, status, body)
	}
	return decodeEnvelope(r.t, body)
}

// checkError requires every route to refuse the pair with the same
// message (evaluate's carries the interpreter's "fox: " prefix).
func (r routeRun) checkError(c routeCorpus, sess *sessiontest.Client) {
	t := r.t
	_, err := core.New(c.s, core.Exact()).Complete(pathexpr.MustParse(r.expr))
	if err == nil {
		t.Fatalf("%s: fresh Completer accepted %q", r.name, r.expr)
	}
	msg := err.Error()
	apiErr := func(route string, status int, body string, want string) {
		t.Helper()
		env := decodeEnvelope(t, body)
		if status != http.StatusUnprocessableEntity || env.Error == nil ||
			env.Error.Code != CodeBadRequest || env.Error.Message != want {
			t.Errorf("%s: %s: status %d error %+v, want 422 %s %q", r.name, route, status, env.Error, CodeBadRequest, want)
		}
	}
	for _, ep := range []struct{ route, base, extra string }{
		{"closure on", r.on, ""}, {"closure off", r.off, ""}, {"closure off repeat", r.off, ""},
		{"traced", r.on, `,"trace":true`}, {"budgeted", r.on, `,"timeoutMs":5000`},
	} {
		resp, body := post(t, ep.base+"/v1/complete", r.body(ep.extra))
		apiErr(ep.route, resp.StatusCode, body, msg)
	}
	resp, body := post(t, r.on+"/v1/completeBatch", `{"queries":[`+r.body("")+`]}`)
	var batch BatchResponse
	if err := json.Unmarshal(decodeEnvelope(t, body).Data, &batch); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: batch: status %d: %s", r.name, resp.StatusCode, body)
	}
	if got := batch.Results[0].Error; got != msg {
		t.Errorf("%s: batch item error = %q, want %q", r.name, got, msg)
	}
	resp2, err := http.Get(r.on + "/v1/explain?expr=" + url.QueryEscape(r.expr))
	if err != nil {
		t.Fatal(err)
	}
	apiErr("explain", resp2.StatusCode, readAll(t, resp2), msg)
	if c.store != nil {
		resp, body := post(t, r.on+"/v1/evaluate", r.body(""))
		apiErr("evaluate", resp.StatusCode, body, "fox: "+msg)
	}
	seq, err := sess.Send(r.expr)
	if err != nil {
		t.Fatal(err)
	}
	exs, err := sess.Collect(seq)
	if err != nil {
		t.Fatal(err)
	}
	if ef := exs[seq].Err; ef == nil || ef.Code != session.CodeBadExpr || ef.Message != msg {
		t.Errorf("%s: session error frame = %+v, want %s %q", r.name, ef, session.CodeBadExpr, msg)
	}
}
