package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/gapre"
	"pathcomplete/internal/pathexpr"
)

// The closed-loop /v1/complete load shared by hot and cold: clients
// call the handler's ServeHTTP in process, each sending its next
// request only after the previous reply.

// stream hands out the queries of a run. next reports ok=false when
// the stream is exhausted.
type stream interface {
	next(client int) (qid int, ok bool)
	query(qid int) query
}

// seenEntry is the first answer one client saw for one query and how
// many later answers were byte-identical to it.
type seenEntry struct {
	sec  []byte
	same int
}

// clientLog is one client's record of a phase.
type clientLog struct {
	lat    []hist // reply latencies (µs) by time slice
	n      int
	bad    int // non-2xx replies
	seen   map[int]*seenEntry
	odd    []oddReply // replies differing from the client's first answer
	bytes  int64
	cached int
	closed int // answered by the closure index
	shared int
}

type oddReply struct {
	qid int
	sec []byte
}

func newClientLog() *clientLog { return &clientLog{seen: map[int]*seenEntry{}} }

// observe records one reply's answer for the gate.
func (l *clientLog) observe(qid int, status int, body []byte) {
	l.n++
	if status/100 != 2 {
		l.bad++
		return
	}
	sec := completionsSection(body)
	if e := l.seen[qid]; e != nil {
		if bytes.Equal(e.sec, sec) {
			e.same++
		} else {
			l.odd = append(l.odd, oddReply{qid, append([]byte(nil), sec...)})
		}
		return
	}
	l.seen[qid] = &seenEntry{sec: append([]byte(nil), sec...), same: 1}
}

// envelope is the part of a /v1/complete reply the traced run reads.
type envelope struct {
	Data struct {
		Engine string `json:"engine"`
		Cached bool   `json:"cached"`
		Shared bool   `json:"shared"`
	} `json:"data"`
}

// restPhase is what one closed-loop phase measured.
type restPhase struct {
	logs   []*clientLog
	slice  time.Duration
	slices int // whole slices in the window
}

func (p restPhase) replies() int {
	n := 0
	for _, l := range p.logs {
		n += l.n
	}
	return n
}

// sliceLatencies merges every client's latencies of slice i.
func (p restPhase) sliceLatencies(i int) *hist {
	h := &hist{}
	for _, l := range p.logs {
		if i < len(l.lat) {
			h.merge(&l.lat[i])
		}
	}
	return h
}

// window is a measured window: one closed-loop phase per segment.
type window []restPhase

// samples is the number of latencies in whole slices.
func (win window) samples() int {
	n := 0
	for _, p := range win {
		for i := 0; i < p.slices; i++ {
			n += p.sliceLatencies(i).n
		}
	}
	return n
}

// e2e computes throughput and latency percentiles of the window: each
// is the median over the window's time slices of the slice's value, so
// a burst of outside noise moves one slice, not the result.
func (win window) e2e(vals map[string]float64) {
	var rps, p50, p99 []float64
	for _, p := range win {
		for i := 0; i < p.slices; i++ {
			lat := p.sliceLatencies(i)
			rps = append(rps, float64(lat.n)/p.slice.Seconds())
			p50 = append(p50, lat.quantile(0.50))
			p99 = append(p99, lat.quantile(0.99))
		}
	}
	vals["throughput_rps"] = median(rps)
	vals["latency_p50_us"] = median(p50)
	vals["latency_p99_us"] = median(p99)
}

// runPhase drives the closed loop for d with one client per log,
// recording latencies by time slice. With tr non-nil every request is
// followed by replays of its layer calls (see replay).
func runPhase(n *node, w *world, st stream, d, slice time.Duration, tr *tracer, logs []*clientLog) restPhase {
	slices := int(d / slice)
	for _, l := range logs {
		l.lat = make([]hist, slices+1)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var reqID sync.Mutex
	var nextReq int64
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := logs[c]
			rw := newRespWriter()
			for time.Now().Before(deadline) {
				qid, ok := st.next(c)
				if !ok {
					return
				}
				q := st.query(qid)
				req, err := newRequest(q)
				if err != nil {
					l.n++
					l.bad++
					continue
				}
				rw.reset()
				t0 := time.Now()
				n.h.ServeHTTP(rw, req)
				dt := time.Since(t0)
				if i := int(t0.Add(dt).Sub(start) / slice); i < len(l.lat) {
					l.lat[i].add(float64(dt) / float64(time.Microsecond))
				}
				l.observe(qid, rw.status, rw.buf.Bytes())
				if tr != nil {
					reqID.Lock()
					nextReq++
					id := nextReq
					reqID.Unlock()
					root := tr.record("server.ServeHTTP", t0, dt, -1, id)
					replay(n, w, q, rw.buf.Bytes(), tr, root, id, l)
				}
			}
		}(c)
	}
	wg.Wait()
	return restPhase{logs: logs, slice: slice, slices: slices}
}

// replay repeats one request's layer calls from the benchmark, on the
// same snapshot and inputs, and records each as a child span of the
// request: parse, snapshot acquire, then the call that produced the
// answer — a closure lookup, or a search on the snapshot's long-lived
// Completer (a throwaway core.New for an e override, as the server
// does). Cache hits replay no search: the cache is part of the server
// layer. Extra replays give the per-class search times, the
// fresh-Completer cost and the gap-constraint cost.
func replay(n *node, w *world, q query, body []byte, tr *tracer, root int32, id int64, l *clientLog) {
	l.bytes += int64(len(body))
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return
	}
	if env.Data.Cached {
		l.cached++
	}
	if env.Data.Shared {
		l.shared++
	}
	var e pathexpr.Expr
	var perr error
	tr.time("pathexpr.Parse", root, id, func() { e, perr = pathexpr.Parse(q.expr) })
	if perr != nil {
		return
	}
	sn, err := n.reg.Acquire("")
	if err != nil {
		return
	}
	defer sn.Release()
	tr.time("registry.Acquire", root, id, func() {
		s, err := n.reg.Acquire("")
		if err == nil {
			s.Release()
		}
	})
	switch {
	case env.Data.Engine == "closure":
		l.closed++
		ix := sn.Closure().Index()
		rc, ok := sn.Schema().ClassByName(e.Root)
		if ix == nil || !ok || len(e.Steps) != 1 {
			return
		}
		anchor := e.Steps[0].Name
		// One lookup is ~10 ns, below the clock's resolution: time a
		// batch and record the mean.
		const k = 64
		t0 := time.Now()
		for i := 0; i < k; i++ {
			ix.Lookup(rc.ID, anchor)
		}
		dt := time.Since(t0) / k
		tr.record("closure.Lookup", t0, dt, root, id)
	case env.Data.Engine == "search" && !env.Data.Cached:
		cmp := sn.Completer()
		if q.e > 0 && q.e != cmp.Options().E {
			opts := cmp.Options()
			opts.E = q.e
			cmp = core.New(sn.Schema(), opts)
		}
		var res *core.Result
		d := tr.time("core.Search", root, id, func() { res, _ = cmp.CompleteContext(context.Background(), e) })
		if res == nil {
			return
		}
		tr.note("core.search_us."+q.class, float64(d)/float64(time.Microsecond))
		if q.e == 0 {
			tr.note("core.calls", float64(res.Stats.Calls))
			tr.note("core.pruned", float64(res.Stats.PrunedBestT+res.Stats.PrunedBestU))
			tr.note("core.search_ns", float64(d))
		} else {
			// The same search on a long-lived Completer with the same
			// options: the difference is what the throwaway costs.
			long := w.longLived(q.e)
			long.CompleteContext(context.Background(), e) // warm its memo
			t0 := time.Now()
			long.CompleteContext(context.Background(), e)
			tr.note("core.fresh_completer_us", float64(d-time.Since(t0))/float64(time.Microsecond))
		}
		if q.class == "regex" {
			replayConstraint(sn.Completer(), e, tr)
		}
	}
}

// replayConstraint times the gap constraint's compilation (gapre
// Compile plus Determinize over the schema's edge alphabet, as the
// kernel does) and the constrained search minus the same search with
// the constraint removed.
func replayConstraint(cmp *core.Completer, e pathexpr.Expr, tr *tracer) {
	s := cmp.Schema()
	rels := s.Rels()
	first := make([]string, len(rels))
	rest := make([]string, len(rels))
	for _, r := range rels {
		first[r.ID] = r.Name
		rest[r.ID] = r.Conn.String() + r.Name
	}
	plain := e
	plain.Steps = append([]pathexpr.Step(nil), e.Steps...)
	for i, st := range plain.Steps {
		if st.Constraint == "" {
			continue
		}
		t0 := time.Now()
		rx, err := gapre.Compile(st.Constraint)
		if err == nil {
			_, err = gapre.Determinize(rx, first, rest)
		}
		tr.note("gapre.compile_us", float64(time.Since(t0))/float64(time.Microsecond))
		plain.Steps[i].Constraint = ""
	}
	t0 := time.Now()
	cmp.CompleteContext(context.Background(), e)
	withC := time.Since(t0)
	t0 = time.Now()
	cmp.CompleteContext(context.Background(), plain)
	tr.note("gapre.overhead_us", float64(withC-time.Since(t0))/float64(time.Microsecond))
}

// newRequest builds the /v1/complete request of one query.
func newRequest(q query) (*http.Request, error) {
	return http.NewRequest(http.MethodPost, "/v1/complete", bytes.NewReader(q.body()))
}

// allocProbe measures heap allocations per ServeHTTP call on one
// goroutine, over n requests of the stream.
func allocProbe(n *node, st stream, count int, l *clientLog) float64 {
	rw := newRespWriter()
	var before, after runtime.MemStats
	total := uint64(0)
	done := 0
	for i := 0; i < count; i++ {
		qid, ok := st.next(0)
		if !ok {
			break
		}
		req, err := newRequest(st.query(qid))
		if err != nil {
			continue
		}
		rw.reset()
		runtime.ReadMemStats(&before)
		n.h.ServeHTTP(rw, req)
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
		done++
		l.observe(qid, rw.status, rw.buf.Bytes())
	}
	return ratio(float64(total), float64(done))
}

// gate checks every logged reply against the oracle and returns the
// number of replies that were refused or wrong.
func gate(o *oracle, st stream, logs []*clientLog, perturb func(qid int, want []byte) []byte) (failed int) {
	type item struct {
		qid   int
		sec   []byte
		count int
	}
	var items []item
	for _, l := range logs {
		failed += l.bad
		for qid, e := range l.seen {
			items = append(items, item{qid, e.sec, e.same})
		}
		for _, r := range l.odd {
			items = append(items, item{r.qid, r.sec, 1})
		}
	}
	wrong := make([]bool, len(items))
	parallel(len(items), func(i int) {
		it := items[i]
		want, err := o.expect(st.query(it.qid))
		if err != nil {
			wrong[i] = true
			return
		}
		got, err := decodeCompletions(it.sec)
		if err != nil {
			wrong[i] = true
			return
		}
		if perturb != nil {
			b, _ := json.Marshal(want)
			if p := perturb(it.qid, b); !bytes.Equal(p, b) {
				want = nil
				if err := json.Unmarshal(p, &want); err != nil {
					wrong[i] = true
					return
				}
			}
		}
		wrong[i] = !sameCompletions(got, want)
	})
	for i, w := range wrong {
		if w {
			failed += items[i].count
		}
	}
	return failed
}

// restLayers turns the traced phase's spans and logs into per-layer
// metrics.
func restLayers(tr *tracer, p restPhase, vals map[string]float64) {
	replies := float64(p.replies())
	var bytes int64
	var cached, closed, shared int
	for _, l := range p.logs {
		bytes += l.bytes
		cached += l.cached
		closed += l.closed
		shared += l.shared
	}
	serve, _ := tr.total("server.ServeHTTP")
	parse, _ := tr.total("pathexpr.Parse")
	acq, _ := tr.total("registry.Acquire")
	look, _ := tr.total("closure.Lookup")
	search, _ := tr.total("core.Search")
	self := serve - parse - acq - look - search
	vals["server.self_us"] = ratio(float64(self)/float64(time.Microsecond), replies)
	vals["server.resp_bytes"] = ratio(float64(bytes), replies)
	vals["server.cache_hit_ratio"] = ratio(float64(cached), replies)
	vals["server.closure_share"] = ratio(float64(closed), replies)
	vals["server.singleflight_shared"] = float64(shared)
	vals["pathexpr.parse_us"] = tr.meanOf("pathexpr.Parse", time.Microsecond)
	vals["registry.acquire_ns"] = tr.meanOf("registry.Acquire", time.Nanosecond)
	vals["closure.lookup_ns"] = tr.meanOf("closure.Lookup", time.Nanosecond)
	for _, c := range []string{"single", "e_override", "regex", "predicate", "multigap"} {
		vals["core.search_us."+c] = median(tr.samples("core.search_us." + c))
	}
	calls := sum(tr.samples("core.calls"))
	vals["core.calls_per_query"] = mean(tr.samples("core.calls"))
	vals["core.ns_per_call"] = ratio(sum(tr.samples("core.search_ns")), calls)
	vals["core.pruned_per_call"] = ratio(sum(tr.samples("core.pruned")), calls)
	vals["core.fresh_completer_us"] = median(tr.samples("core.fresh_completer_us"))
	vals["gapre.compile_us"] = median(tr.samples("gapre.compile_us"))
	vals["gapre.overhead_us"] = median(tr.samples("gapre.overhead_us"))
	if serve > 0 {
		vals["split.server_self"] = float64(self) / float64(serve)
		vals["split.pathexpr"] = float64(parse) / float64(serve)
		vals["split.registry"] = float64(acq) / float64(serve)
		vals["split.closure"] = float64(look) / float64(serve)
		vals["split.core"] = float64(search) / float64(serve)
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// longLived returns the benchmark's long-lived Completer for an e
// override (the baseline of core.fresh_completer_us).
func (w *world) longLived(e int) *core.Completer {
	w.mu.Lock()
	defer w.mu.Unlock()
	if c := w.long[e]; c != nil {
		return c
	}
	opts := core.Paper()
	opts.E = e
	c := core.New(w.s, opts)
	if w.long == nil {
		w.long = map[int]*core.Completer{}
	}
	w.long[e] = c
	return c
}
