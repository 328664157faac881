package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pathcomplete/internal/sdl"
)

// runCtx is one invocation's settings.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	work     string // scratch directory inside the checkout
	// perturb, when set, alters expected answers before the gate
	// compares them (the gate's own test uses it).
	perturb func(qid int, want []byte) []byte
}

// result is what a workload run reports.
type result struct {
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64
	report    map[string]any
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]any{}}
}

// setup boots cfg reps times and returns the last node with the median
// boot time. With a tracer it boots reps more times with tracing on and
// also returns that median (the tracing overhead of set-up).
func setup(cfg bootConfig, reps int, tr *tracer) (n *node, med, tracedMed float64, err error) {
	times := func(t *tracer) ([]float64, error) {
		var xs []float64
		for i := 0; i < reps; i++ {
			n = nil
			var s float64
			n, s, err = timedBoot(cfg, t)
			if err != nil {
				return nil, err
			}
			xs = append(xs, s)
		}
		return xs, nil
	}
	plain, err := times(nil)
	if err != nil {
		return nil, 0, 0, err
	}
	med = median(plain)
	if tr != nil {
		traced, err := times(tr)
		if err != nil {
			return nil, 0, 0, err
		}
		tracedMed = median(traced)
	}
	return n, med, tracedMed, nil
}

// timedBoot boots cfg once and returns the node and its boot time in
// seconds. A restarted process boots on an empty heap: the previous
// boot's garbage is collected outside the timing.
func timedBoot(cfg bootConfig, tr *tracer) (*node, float64, error) {
	runtime.GC()
	time.Sleep(setupGap)
	start := time.Now()
	n, err := boot(cfg, tr)
	return n, time.Since(start).Seconds(), err
}

// setupGap separates set-up repetitions and reload probes.
const setupGap = 20 * time.Millisecond

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// editor makes schema edits: an edge removal, then the re-addition
// that restores it, cycling through the world's removable edges.
type editor struct {
	n       *node
	w       *world
	path    string
	closure bool
	edits   int // reloads made so far
}

// step makes the next edit and returns once the new generation is
// ready, with the SDL text it loaded.
func (e *editor) step(tr *tracer) (typedReload, string) {
	kind, text := "readd", e.w.sdl
	if e.edits%2 == 0 {
		kind = "removal"
		text = e.w.without(e.w.edits[(e.edits/2)%len(e.w.edits)])
	}
	e.edits++
	r := typedReload{e.n.reload(e.path, text, e.closure), kind}
	if tr != nil {
		tr.time("sdl.Parse", -1, 0, func() { sdl.ParseString(text) })
		tr.note("registry.reload_ms", float64(r.call)/float64(time.Millisecond))
		if e.closure {
			tr.note("closure.reused_cells_ratio."+kind, r.reused)
		}
	}
	return r, text
}

// probe runs edit cycles outside the timed window, each cycle one
// removal and the re-addition that restores it, and returns their
// reloads.
func (e *editor) probe(cycles int, tr *tracer, res *result) []typedReload {
	var rs []typedReload
	for i := 0; i < 2*cycles; i++ {
		time.Sleep(setupGap)
		r, _ := e.step(tr)
		res.attempted++
		if r.outcome != "ready" {
			res.failed++
		}
		rs = append(rs, r)
	}
	return rs
}

// run edits every period from start+period/2 until end, beside
// traffic; a slow reload delays the next. after, when set, runs after
// each reload with the SDL text it loaded.
func (e *editor) run(start, end time.Time, period time.Duration, tr *tracer, after func(typedReload, string)) []typedReload {
	var out []typedReload
	next := start.Add(period / 2)
	for next.Before(end) {
		time.Sleep(time.Until(next))
		r, text := e.step(tr)
		out = append(out, r)
		if after != nil {
			after(r, text)
		}
		next = next.Add(period)
		if now := time.Now(); next.Before(now) {
			next = now
		}
	}
	return out
}

// reloadLayers fills the reload-side per-layer metrics.
func reloadLayers(tr *tracer, vals map[string]float64) {
	vals["sdl.parse_ms"] = tr.meanOf("sdl.Parse", time.Millisecond)
	vals["registry.reload_ms"] = median(tr.samples("registry.reload_ms"))
	vals["closure.reused_cells_ratio.removal"] = mean(tr.samples("closure.reused_cells_ratio.removal"))
	vals["closure.reused_cells_ratio.readd"] = mean(tr.samples("closure.reused_cells_ratio.readd"))
}

// zipfStream repeats a fixed pool with Zipf popularity, each client on
// its own seeded generator. The popularity order turns: every
// zipfRotate requests a client shifts the seeded rank order by one
// place, so over a run each query spends as long at each rank as any
// other. The run's cost is then the pool's, not that of the few
// queries one seed happened to make hottest.
type zipfStream struct {
	pool  []query
	order []int // the seeded rank order
	z     []*rand.Zipf
	sent  []int
}

const zipfRotate = 100

// hotPoolSeed draws hot's query pool.
const hotPoolSeed = 1994

func newZipfStream(pool []query, seed int64, clients int) *zipfStream {
	s := &zipfStream{pool: pool, sent: make([]int, clients)}
	s.order = rand.New(rand.NewSource(seed)).Perm(len(pool))
	for c := 0; c < clients; c++ {
		r := rand.New(rand.NewSource(seed*1000 + int64(c)))
		s.z = append(s.z, rand.NewZipf(r, 1.1, 1, uint64(len(pool)-1)))
	}
	return s
}

func (s *zipfStream) next(c int) (int, bool) {
	shift := s.sent[c] / zipfRotate
	s.sent[c]++
	return s.order[(int(s.z[c].Uint64())+shift)%len(s.order)], true
}

func (s *zipfStream) query(qid int) query { return s.pool[qid] }

// uniqueStream draws never-repeated queries from the class mix; the
// sequence is fixed by the seed, the interleaving across clients is
// not.
type uniqueStream struct {
	mu      sync.Mutex
	g       *gen
	weights map[string]int
	seen    map[string]bool
	qs      []query
}

func (s *uniqueStream) next(int) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for tries := 0; tries < 1000; tries++ {
		q := s.g.make(s.g.mix(s.weights))
		if !s.seen[q.key()] {
			s.seen[q.key()] = true
			s.qs = append(s.qs, q)
			return len(s.qs) - 1, true
		}
	}
	return 0, false
}

func (s *uniqueStream) query(qid int) query {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.qs[qid]
}

// restWorkload is the shape of hot and cold: a booted server, a query
// stream, closed-loop phases, the gate and reload probes.
type restWorkload struct {
	name      string
	world     *world
	closure   bool
	clients   int // closed-loop clients
	setupReps int
	cycles    int           // reload probe cycles
	slice     time.Duration // the window's measurement slice
	stream    stream
	warm      []int // query ids sent once, untimed, before the window
}

func runRest(rc runCtx, wl restWorkload) (*result, error) {
	res := newResult()
	w := wl.world
	dir := filepath.Join(rc.work, "schemas")
	path, err := writeSchema(dir, wl.name, w.sdl)
	if err != nil {
		return nil, err
	}
	res.report["schema"] = w.stamp()
	cfg := bootConfig{schemasDir: dir, closure: wl.closure}
	if rc.traced {
		err = tracedRest(rc, wl, cfg, path, res)
	} else {
		err = segmentedRest(rc, wl, cfg, path, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// reportWindow records what the window's traffic was made of.
func reportWindow(wl restWorkload, win window, res *result) {
	classes := map[string]int{}
	sent := 0
	var logs []*clientLog
	for _, p := range win {
		logs = append(logs, p.logs...)
	}
	for _, l := range logs {
		sent += l.n
		for qid, e := range l.seen {
			classes[wl.stream.query(qid).class] += e.same
		}
		for _, r := range l.odd {
			classes[wl.stream.query(r.qid).class]++
		}
	}
	res.report["repeat_share"] = repeatShare(wl, logs)
	res.report["constrained_share"] = ratio(float64(classes["regex"]+classes["predicate"]), float64(sent))
	res.report["class_counts"] = classes
	res.report["requests"] = sent
	res.report["latency_samples"] = win.samples()
}

// windowSegments is the number of parts of an untraced hot or cold
// window.
const windowSegments = 5

// segmentedRest measures the untraced window in windowSegments parts.
// The run's untimed work (set-up repetitions, reload probe cycles, the
// gate and, after a reload, the warm-up) is shared out over the gaps
// between them, so the window's slices sample the machine's speed over
// the whole run rather than over one stretch of it.
func segmentedRest(rc runCtx, wl restWorkload, cfg bootConfig, path string, res *result) error {
	w := wl.world
	segs := min(windowSegments, max(int(rc.seconds/wl.slice), 1))
	gaps := max(segs-1, 1)
	n, first, err := timedBoot(cfg, nil)
	if err != nil {
		return err
	}
	boots := []float64{first}
	ed := &editor{n: n, w: w, path: path, closure: wl.closure}
	var reloads []typedReload
	var pending []*clientLog // replies not yet through the gate
	warm := func() {
		l := newClientLog()
		for _, qid := range wl.warm {
			runOne(n, wl.stream, qid, l)
		}
		pending = append(pending, l)
	}
	// gap does the g-th share of the untimed work.
	gap := func(g int) error {
		// The gate: outside the window and outside setup_s.
		res.failed += gateLogs(w, wl.stream, pending, rc.perturb, res)
		pending = nil
		for i := share(wl.setupReps-1, gaps, g); i > 0; i-- {
			_, s, err := timedBoot(cfg, nil)
			if err != nil {
				return err
			}
			boots = append(boots, s)
		}
		reloads = append(reloads, ed.probe(share(wl.cycles, gaps, g), nil, res)...)
		warm()
		runtime.GC()
		return nil
	}
	warm()
	var win window
	for k := 0; k < segs; k++ {
		if k > 0 {
			if err := gap(k - 1); err != nil {
				return err
			}
		}
		logs := newLogs(wl.clients)
		win = append(win, runPhase(n, w, wl.stream, rc.seconds/time.Duration(segs), wl.slice, nil, logs))
		pending = append(pending, logs...)
	}
	if segs == 1 {
		if err := gap(0); err != nil {
			return err
		}
	}
	res.failed += gateLogs(w, wl.stream, pending, rc.perturb, res)
	win.e2e(res.e2e)
	res.e2e["setup_s"] = median(boots)
	res.e2e["reload_ready_ms"] = readyMs(reloads)
	reportWindow(wl, win, res)
	// The heap is the server's: the benchmark's records are dropped first.
	win, pending = nil, nil
	res.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(n)
	return nil
}

// tracedRest runs the traced window: an untraced then a traced half on
// the same server. The traced half gives the layers, the difference
// the tracing overhead.
func tracedRest(rc runCtx, wl restWorkload, cfg bootConfig, path string, res *result) error {
	w := wl.world
	tr := newTracer()
	n, setupS, tracedSetupS, err := setup(cfg, wl.setupReps, tr)
	if err != nil {
		return err
	}
	res.e2e["setup_s"] = setupS
	res.layers["overhead.setup_s"] = tracedSetupS - setupS
	if ix := n.index(); ix != nil {
		res.layers["closure.build_s"] = ix.BuildDuration().Seconds()
	}
	warmLog := newClientLog()
	for _, qid := range wl.warm {
		runOne(n, wl.stream, qid, warmLog)
	}
	logs := newLogs(wl.clients)
	plain := runPhase(n, w, wl.stream, rc.seconds/2, wl.slice, nil, logs)
	tlogs := newLogs(wl.clients)
	traced := runPhase(n, w, wl.stream, rc.seconds/2, wl.slice, tr, tlogs)
	window{plain}.e2e(res.e2e)
	tv := map[string]float64{}
	window{traced}.e2e(tv)
	for _, k := range []string{"throughput_rps", "latency_p50_us", "latency_p99_us"} {
		res.layers["overhead."+k] = tv[k] - res.e2e[k]
	}
	restLayers(tr, traced, res.layers)
	probe := newClientLog()
	res.layers["server.allocs_per_req"] = allocProbe(n, wl.stream, 200, probe)

	// The gate: outside the window and outside setup_s.
	all := append(append([]*clientLog{warmLog, probe}, logs...), tlogs...)
	res.failed += gateLogs(w, wl.stream, all, rc.perturb, res)
	reportWindow(wl, window{plain}, res)
	all, logs, tlogs, plain, traced = nil, nil, nil, restPhase{}, restPhase{}

	heapTraced := liveHeapMB()
	res.report["trace_file"] = dumpTrace(tr, rc)
	res.layers["trace.spans"] = float64(tr.count())
	tr.spans = nil
	res.e2e["live_heap_mb"] = liveHeapMB()
	res.layers["overhead.live_heap_mb"] = heapTraced - res.e2e["live_heap_mb"]
	runtime.KeepAlive(n)

	res.e2e["reload_ready_ms"] = readyMs((&editor{n: n, w: w, path: path, closure: wl.closure}).probe(wl.cycles, nil, res))
	tracedReady := readyMs((&editor{n: n, w: w, path: path, closure: wl.closure}).probe(wl.cycles, tr, res))
	res.layers["overhead.reload_ready_ms"] = tracedReady - res.e2e["reload_ready_ms"]
	reloadLayers(tr, res.layers)
	return nil
}

// gateLogs counts the logs' replies as attempted and returns how many
// the gate failed, checked with a fresh oracle that is dropped after.
func gateLogs(w *world, st stream, logs []*clientLog, perturb func(int, []byte) []byte, res *result) int {
	for _, l := range logs {
		res.attempted += l.n
	}
	return gate(newOracle(w.s), st, logs, perturb)
}

func newLogs(clients int) []*clientLog {
	logs := make([]*clientLog, clients)
	for i := range logs {
		logs[i] = newClientLog()
	}
	return logs
}

// share is the g-th of parts near-equal shares of total.
func share(total, parts, g int) int {
	n := total / parts
	if g < total%parts {
		n++
	}
	return n
}

// runOne sends one request outside any timed window.
func runOne(n *node, st stream, qid int, l *clientLog) {
	req, err := newRequest(st.query(qid))
	if err != nil {
		l.n++
		l.bad++
		return
	}
	rw := newRespWriter()
	n.h.ServeHTTP(rw, req)
	l.observe(qid, rw.status, rw.buf.Bytes())
}

// repeatShare is the share of window requests whose query had been
// sent before (in the warm-up or earlier in the window).
func repeatShare(wl restWorkload, logs []*clientLog) float64 {
	warm := map[int]bool{}
	for _, q := range wl.warm {
		warm[q] = true
	}
	total, fresh := 0, map[int]bool{}
	for _, l := range logs {
		for qid, e := range l.seen {
			total += e.same
			if !warm[qid] {
				fresh[qid] = true
			}
		}
		for range l.odd {
			total++
		}
	}
	return 1 - ratio(float64(len(fresh)), float64(total))
}

func dumpTrace(tr *tracer, rc runCtx) string {
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", rc.workload, rc.seed))
	if err := tr.dump(path); err != nil {
		return "error: " + err.Error()
	}
	return path
}

func runHot(rc runCtx) (*result, error) {
	w, err := newWorld("hot", hotConfig(), rc.seed)
	if err != nil {
		return nil, err
	}
	// The pool is fixed, like the schema; the run seed drives its rank
	// order and the draws. The costliest 1 % of replies set the p99,
	// and between pools drawn from different seeds they differ up to
	// 1.4x.
	pool := newGen(w, hotPoolSeed).distinct(600, map[string]int{"single": 80, "multigap": 8, "e_override": 6, "regex": 3, "predicate": 3})
	warm := make([]int, len(pool))
	for i := range warm {
		warm[i] = i
	}
	// One client: the server's collector marks for much of a hot run,
	// and a second busy client would leave its worker no core, so the
	// latency tail would measure run-queue waits instead of requests.
	return runRest(rc, restWorkload{
		name: "hot", world: w, closure: true, clients: 1, setupReps: 5, cycles: 8,
		slice: time.Second, stream: newZipfStream(pool, rc.seed, 1), warm: warm,
	})
}

func runCold(rc runCtx) (*result, error) {
	w, err := newWorld("cold", coldConfig(), rc.seed)
	if err != nil {
		return nil, err
	}
	st := &uniqueStream{
		g:       newGen(w, rc.seed+1),
		weights: map[string]int{"single": 45, "e_override": 15, "regex": 15, "predicate": 10, "multigap": 15},
		seen:    map[string]bool{},
	}
	return runRest(rc, restWorkload{
		name: "cold", world: w, closure: false, clients: 2, setupReps: 21, cycles: 40,
		slice: 2500 * time.Millisecond, stream: st,
	})
}
