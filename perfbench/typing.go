package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/persist"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/sdl"
	"pathcomplete/internal/session"
	"pathcomplete/internal/ws"
)

// The typing workload: two WebSocket sessions type expressions on a
// fixed schedule (open loop) while the benchmark edits the schema and
// reloads it on a fixed period.

const (
	keyInterval  = 40 * time.Millisecond // per typist; above the 15 ms debounce
	reloadPeriod = 3 * time.Second
	typists      = 2
)

// keystroke is one update a typist sent and what came back for it.
type keystroke struct {
	expr    string
	due     time.Time
	sent    time.Time
	term    time.Time // terminal frame arrival; zero if none came
	kind    string    // final, error or skipped
	gen     uint64    // generation the answer was computed on
	answer  []session.Candidate
	stats   *session.Stats
	frames  int
	wsBytes int
}

// generations maps each registry generation to the SDL text it loaded.
type generations struct {
	mu   sync.Mutex
	text map[uint64]string
	// at records when each generation's reload call returned.
	at map[uint64]time.Time
}

func (g *generations) set(gen uint64, text string, at time.Time) {
	g.mu.Lock()
	g.text[gen] = text
	g.at[gen] = at
	g.mu.Unlock()
}

func (g *generations) get(gen uint64) (string, time.Time, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	t, ok := g.text[gen]
	return t, g.at[gen], ok
}

// typingPhase is what one window of typing traffic measured.
type typingPhase struct {
	keys    [][]*keystroke
	reloads []typedReload
	elapsed time.Duration
	rebinds []float64 // ms from reload return to rebind frame
}

// rebind is one rebind frame's arrival.
type rebind struct {
	gen uint64
	at  time.Time
}

type typedReload struct {
	reloadResult
	kind string // removal or readd
}

type typingRun struct {
	n     *node
	w     *world
	url   string
	gens  *generations
	tapes [][]string
	pos   []int // next tape position per typist
	ed    *editor
	save  *persist.Store
}

func runTyping(rc runCtx) (*result, error) {
	res := newResult()
	w, err := newWorld("typing", typingConfig(), rc.seed)
	if err != nil {
		return nil, err
	}
	g := newGen(w, rc.seed+1)
	perTypist := int(rc.seconds/keyInterval) + 1
	tapes := [][]string{g.tape(perTypist), g.tape(perTypist)}
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	dir := filepath.Join(rc.work, "schemas")
	data := filepath.Join(rc.work, "data")
	path, err := writeSchema(dir, w.name, w.sdl)
	if err != nil {
		return nil, err
	}
	cfg := bootConfig{schemasDir: dir, closure: true, dataDir: data}

	// Untimed first boot: build the closure and write the data dir.
	first, err := boot(cfg, nil)
	if err != nil {
		return nil, err
	}
	if err := waitSaved(first, w.name, first.reg.Generation()); err != nil {
		return nil, err
	}
	first.sv.BeginDrain()
	first = nil

	// Timed set-up: the restart from disk.
	n, setupS, tracedSetupS, err := setup(cfg, 21, tr)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS
	res.report["schema"] = w.stamp()
	ix := n.index()
	res.report["restored"] = ix != nil && ix.Restored()
	if ix == nil || !ix.Restored() {
		return nil, errors.New("typing: restart did not restore the closure from disk")
	}
	if fi, err := os.Stat(filepath.Join(data, w.name+persist.FileSuffix)); err == nil {
		res.layers["persist.file_bytes"] = float64(fi.Size())
	}
	if tr != nil {
		res.layers["overhead.setup_s"] = tracedSetupS - setupS
		replayRestore(data, w, tr)
		res.layers["persist.restore_ms"] = tr.meanOf("persist.Restore", time.Millisecond)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: n.h, ReadHeaderTimeout: 5 * time.Second}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		hs.Serve(ln)
	}()
	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
			<-serveDone
		})
	}
	defer stop()

	tw := &typingRun{
		n: n, w: w, tapes: tapes, pos: make([]int, typists),
		url:  "ws://" + ln.Addr().String() + "/v1/sessions",
		gens: &generations{text: map[uint64]string{}, at: map[uint64]time.Time{}},
		ed:   &editor{n: n, w: w, path: path, closure: true},
	}
	tw.gens.set(n.reg.Generation(), w.sdl, time.Now())
	var phases []*typingPhase
	if !rc.traced {
		p, err := tw.phase(rc.seconds, nil)
		if err != nil {
			return nil, err
		}
		p.e2e(res.e2e)
		phases = append(phases, p)
	} else {
		tw.save, err = persist.Open(filepath.Join(rc.work, "savecheck"))
		if err != nil {
			return nil, err
		}
		plain, err := tw.phase(rc.seconds/2, nil)
		if err != nil {
			return nil, err
		}
		traced, err := tw.phase(rc.seconds/2, tr)
		if err != nil {
			return nil, err
		}
		plain.e2e(res.e2e)
		tv := map[string]float64{}
		traced.e2e(tv)
		for _, k := range []string{"throughput_rps", "latency_p50_us", "latency_p99_us", "reload_ready_ms"} {
			res.layers["overhead."+k] = tv[k] - res.e2e[k]
		}
		traced.layers(tr, res.layers)
		phases = append(phases, plain, traced)
	}
	stop()
	tw.report(phases, res)

	// The gate: every final frame against the one-shot answer for the
	// same expression and generation, outside the window and setup_s.
	wrong := tw.gate(phases, rc.perturb)
	res.failed += wrong
	res.report["keystrokes_failed"] = wrong
	res.report["keystrokes_succeeded"] = res.report["keystrokes_sent"].(int) - wrong
	for _, p := range phases {
		for _, ks := range p.keys {
			res.attempted += len(ks)
		}
		for _, r := range p.reloads {
			res.attempted++
			if r.outcome != "ready" {
				res.failed++
			}
		}
	}
	phases = nil
	tw.tapes = nil
	// Settle before the heap reading: load the base schema once more
	// (a fresh generation, so the heap does not depend on when the
	// window's last reload happened) and let its background save
	// finish.
	r := n.reload(path, w.sdl, true)
	if r.outcome != "ready" {
		return nil, fmt.Errorf("typing: settling reload: %s", r.outcome)
	}
	if err := waitSaved(n, w.name, r.gen); err != nil {
		return nil, err
	}
	n.sv.BeginDrain()
	if tr != nil {
		heapTraced := liveHeapMB()
		res.report["trace_file"] = dumpTrace(tr, rc)
		res.layers["trace.spans"] = float64(tr.count())
		tr.spans = nil
		res.e2e["live_heap_mb"] = liveHeapMB()
		res.layers["overhead.live_heap_mb"] = heapTraced - res.e2e["live_heap_mb"]
	} else {
		res.e2e["live_heap_mb"] = liveHeapMB()
	}
	return res, nil
}

// waitSaved waits until generation gen's warm closure has been written
// to disk (the save is scheduled after the build, then flushed).
func waitSaved(n *node, name string, gen uint64) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if g, ok := n.ps.SavedGeneration(name); ok && g >= gen {
			n.ps.Flush()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("typing: generation %d was never saved", gen)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// replayRestore times the persist layer's restore of the data dir's
// snapshot on a store of the benchmark's own (before any traffic).
func replayRestore(data string, w *world, tr *tracer) {
	ps, err := persist.Open(data)
	if err != nil {
		return
	}
	for i := 0; i < 5; i++ {
		tr.time("persist.Restore", -1, 0, func() { ps.Restore(w.name, w.s, core.Paper(), 1) })
	}
}

// phase runs the typists and the editor for d.
func (tw *typingRun) phase(d time.Duration, tr *tracer) (*typingPhase, error) {
	p := &typingPhase{keys: make([][]*keystroke, typists)}
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	errs := make([]error, typists)
	var rmu sync.Mutex
	var rebinds []rebind
	for c := 0; c < typists; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			offset := time.Duration(c) * keyInterval / typists
			ks, rb, err := tw.typist(c, start.Add(offset), end, tr)
			p.keys[c] = ks
			errs[c] = err
			rmu.Lock()
			rebinds = append(rebinds, rb...)
			rmu.Unlock()
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.reloads = tw.editor(start, end, tr)
	}()
	wg.Wait()
	// Throughput runs from the window's start to the last answer of a
	// window keystroke: the grace period and the last reload's wait
	// carry no traffic.
	last := start
	for _, ks := range p.keys {
		for _, k := range ks {
			if k.term.After(last) {
				last = k.term
			}
		}
	}
	p.elapsed = last.Sub(start)
	for _, rb := range rebinds {
		if _, at, ok := tw.gens.get(rb.gen); ok {
			p.rebinds = append(p.rebinds, float64(rb.at.Sub(at))/float64(time.Millisecond))
		}
	}
	return p, errors.Join(errs...)
}

// typist sends one tape on schedule and collects every frame.
func (tw *typingRun) typist(c int, start, end time.Time, tr *tracer) ([]*keystroke, []rebind, error) {
	conn, err := ws.Dial(tw.url)
	if err != nil {
		return nil, nil, err
	}
	_, data, err := conn.ReadMessage()
	if err != nil {
		conn.Close(ws.CloseNormal, "")
		return nil, nil, err
	}
	var hello session.ServerFrame
	if err := json.Unmarshal(data, &hello); err != nil || hello.Type != session.TypeHello {
		conn.Close(ws.CloseNormal, "")
		return nil, nil, fmt.Errorf("typing: bad hello %q", data)
	}
	var (
		mu       sync.Mutex
		keys     []*keystroke
		rebinds  []rebind
		terminal atomic.Int64
	)
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		gen := hello.Generation
		var mirror *mirrorFrontier
		for {
			_, data, err := conn.ReadMessage()
			if err != nil {
				return
			}
			now := time.Now()
			var f session.ServerFrame
			if json.Unmarshal(data, &f) != nil {
				continue
			}
			if f.Type == session.TypeRebind {
				gen = f.Generation
				rebinds = append(rebinds, rebind{gen, now})
				continue
			}
			mu.Lock()
			if f.Seq == 0 || int(f.Seq) > len(keys) {
				mu.Unlock()
				continue
			}
			k := keys[f.Seq-1]
			mu.Unlock()
			k.frames++
			k.wsBytes += len(data)
			switch f.Type {
			case session.TypeFinal, session.TypeError, session.TypeSkipped:
				k.term, k.kind, k.gen = now, f.Type, gen
				k.answer, k.stats = f.Completions, f.Stats
				terminal.Add(1)
				if tr != nil && f.Type == session.TypeFinal && f.Engine == session.EngineFrontier {
					mirror = tw.replayAdvance(mirror, k, tr)
				}
			}
		}
	}()
	tape := tw.tapes[c]
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * keyInterval)
		if !due.Before(end) || tw.pos[c] >= len(tape) {
			break
		}
		time.Sleep(time.Until(due))
		k := &keystroke{expr: tape[tw.pos[c]], due: due}
		tw.pos[c]++
		mu.Lock()
		keys = append(keys, k)
		seq := uint64(len(keys))
		mu.Unlock()
		frame, _ := json.Marshal(session.ClientFrame{Type: session.TypeUpdate, Seq: seq, Expr: k.expr})
		k.sent = time.Now()
		if err := conn.WriteMessage(ws.OpText, frame); err != nil {
			break
		}
	}
	// Let the last keystrokes finish; one still open after the grace
	// period has no terminal frame and counts as failed.
	mu.Lock()
	sent := int64(len(keys))
	mu.Unlock()
	grace := time.Now().Add(3 * time.Second)
	for terminal.Load() < sent && time.Now().Before(grace) {
		time.Sleep(2 * time.Millisecond)
	}
	conn.Close(ws.CloseNormal, "")
	<-readDone
	return keys, rebinds, nil
}

// editor alternates an edge removal and its re-addition every
// reloadPeriod until end, waiting for each reload's closure.
func (tw *typingRun) editor(start, end time.Time, tr *tracer) []typedReload {
	return tw.ed.run(start, end, reloadPeriod, tr, func(r typedReload, text string) {
		tw.gens.set(r.gen, text, r.at)
		if tr != nil {
			tw.replaySave(tr)
		}
	})
}

// replaySave times capturing and durably saving the current index on
// a store of the benchmark's own — the work the registry does beside
// the typing traffic after every warm.
func (tw *typingRun) replaySave(tr *tracer) {
	sn, err := tw.n.reg.Acquire("")
	if err != nil {
		return
	}
	defer sn.Release()
	ix := sn.Closure().Index()
	if ix == nil || tw.save == nil {
		return
	}
	tr.time("persist.Save", -1, 0, func() {
		f, err := persist.Capture(sn.Name(), sn.Schema(), core.Paper(), sn.Generation(), time.Now().Unix(), ix)
		if err == nil {
			tw.save.Save(f)
		}
	})
}

// mirrorFrontier is the benchmark's own frontier replaying a session's
// keystrokes on the same snapshot.
type mirrorFrontier struct {
	gen  uint64
	base string
	f    *core.Frontier
}

// replayAdvance times core.Frontier.Advance for one final frame on a
// mirror frontier built like the session's (same snapshot Completer,
// closure cells as its cell source for single-gap bases).
func (tw *typingRun) replayAdvance(m *mirrorFrontier, k *keystroke, tr *tracer) *mirrorFrontier {
	e, err := pathexpr.Parse(k.expr)
	if err != nil || len(e.Steps) == 0 {
		return m
	}
	sn, err := tw.n.reg.Acquire("")
	if err != nil {
		return m
	}
	defer sn.Release()
	if sn.Generation() != k.gen {
		return nil
	}
	base := e
	base.Steps = append([]pathexpr.Step(nil), e.Steps...)
	base.Steps[len(base.Steps)-1].Name = ""
	key := base.String()
	if m == nil || m.gen != k.gen || m.base != key {
		f, err := sn.Completer().NewFrontier(e)
		if err != nil {
			return nil
		}
		if ix := sn.Closure().Index(); ix != nil && len(e.Steps) == 1 {
			if rc, ok := sn.Schema().ClassByName(e.Root); ok {
				f.SetCellSource(func(anchor string) (*core.Result, bool) { return ix.Lookup(rc.ID, anchor) })
			}
		}
		m = &mirrorFrontier{gen: k.gen, base: key, f: f}
	}
	tr.time("core.Frontier.Advance", -1, 0, func() {
		m.f.Advance(context.Background(), e.Steps[len(e.Steps)-1].Name, nil)
	})
	return m
}

// e2e computes the typing window's end-to-end metrics.
func (p *typingPhase) e2e(vals map[string]float64) {
	var lat []float64
	for _, ks := range p.keys {
		for _, k := range ks {
			if !k.term.IsZero() {
				lat = append(lat, float64(k.term.Sub(k.due))/float64(time.Microsecond))
			}
		}
	}
	vals["throughput_rps"] = float64(len(lat)) / p.elapsed.Seconds()
	vals["latency_p50_us"] = quantile(lat, 0.50)
	vals["latency_p99_us"] = quantile(lat, 0.99)
	vals["reload_ready_ms"] = readyMs(p.reloads)
}

// readyMs is the mean of the median removal and the median re-addition
// ready time: single reloads are bimodal (a removal reuses closure
// cells, a re-addition rebuilds), so a plain median would jump between
// the two modes with the reload count.
func readyMs(rs []typedReload) float64 {
	var rem, add []float64
	for _, r := range rs {
		ms := float64(r.ready) / float64(time.Millisecond)
		if r.kind == "removal" {
			rem = append(rem, ms)
		} else {
			add = append(add, ms)
		}
	}
	switch {
	case len(rem) == 0:
		return median(add)
	case len(add) == 0:
		return median(rem)
	}
	return (median(rem) + median(add)) / 2
}

// layers fills the typing per-layer metrics from the traced phase.
func (p *typingPhase) layers(tr *tracer, vals map[string]float64) {
	var keys, frames, bytes, skipped, finals, cold, anchors, reused float64
	for _, ks := range p.keys {
		for _, k := range ks {
			keys++
			frames += float64(k.frames)
			bytes += float64(k.wsBytes)
			switch k.kind {
			case session.TypeSkipped:
				skipped++
			case session.TypeFinal:
				finals++
				if k.stats != nil {
					cold += float64(k.stats.Cold)
					anchors += float64(k.stats.Anchors)
					reused += float64(k.stats.Reused + k.stats.Source)
				}
			}
		}
	}
	vals["session.frames_per_keystroke"] = ratio(frames, keys)
	vals["ws.bytes_per_keystroke"] = ratio(bytes, keys)
	vals["session.skipped_ratio"] = ratio(skipped, keys)
	vals["session.rebind_ms"] = mean(p.rebinds)
	vals["core.frontier_cold_cells"] = ratio(cold, finals)
	vals["core.frontier_reuse_ratio"] = ratio(reused, anchors)
	vals["core.frontier_advance_us"] = tr.meanOf("core.Frontier.Advance", time.Microsecond)
	vals["persist.save_ms"] = tr.meanOf("persist.Save", time.Millisecond)
	vals["gen.late_ms"] = p.lateP99()
	reloadLayers(tr, vals)
}

func (p *typingPhase) lateP99() float64 {
	var late []float64
	for _, ks := range p.keys {
		for _, k := range ks {
			late = append(late, float64(k.sent.Sub(k.due))/float64(time.Millisecond))
		}
	}
	return quantile(late, 0.99)
}

// report records the run's open-loop hygiene and workload properties.
func (tw *typingRun) report(phases []*typingPhase, res *result) {
	var sent, finals, errs, skipped, missing, cells, cold int
	outcomes := map[string]int{}
	var late []float64
	var lat []float64
	var reloads []map[string]any
	for _, p := range phases {
		for _, ks := range p.keys {
			for _, k := range ks {
				sent++
				late = append(late, float64(k.sent.Sub(k.due))/float64(time.Millisecond))
				switch k.kind {
				case session.TypeFinal:
					finals++
					if k.stats != nil {
						cold += k.stats.Cold
						cells += k.stats.Anchors
					}
				case session.TypeError:
					errs++
				case session.TypeSkipped:
					skipped++
				default:
					missing++
				}
				if !k.term.IsZero() {
					lat = append(lat, float64(k.term.Sub(k.due))/float64(time.Millisecond))
				}
			}
		}
		for _, r := range p.reloads {
			outcomes[r.kind+":"+r.outcome]++
			reloads = append(reloads, map[string]any{
				"kind": r.kind, "ready_ms": float64(r.ready) / float64(time.Millisecond),
				"reused_cells_ratio": r.reused, "outcome": r.outcome,
			})
		}
	}
	res.report["keystrokes_sent"] = sent
	res.report["keystrokes_final"] = finals
	res.report["keystrokes_error"] = errs
	res.report["keystrokes_skipped"] = skipped
	res.report["keystrokes_unanswered"] = missing
	res.report["keystroke_p50_ms"] = quantile(append([]float64(nil), lat...), 0.50)
	res.report["keystroke_p99_ms"] = quantile(lat, 0.99)
	res.report["gen.late_ms_p99"] = quantile(late, 0.99)
	res.report["cold_cell_share"] = ratio(float64(cold), float64(cells))
	res.report["constrained_share"] = 0.0
	res.report["reloads"] = reloads
	res.report["reload_outcomes"] = outcomes
}

// gate checks every final and error frame against the one-shot answer
// for the same expression on the same generation's schema.
func (tw *typingRun) gate(phases []*typingPhase, perturb func(int, []byte) []byte) int {
	var items []*keystroke
	failed := 0
	for _, p := range phases {
		for _, ks := range p.keys {
			for _, k := range ks {
				switch k.kind {
				case session.TypeFinal, session.TypeError:
					items = append(items, k)
				case "":
					failed++ // no terminal frame
				}
			}
		}
	}
	oracles := map[uint64]*oracle{}
	for _, k := range items {
		if oracles[k.gen] != nil {
			continue
		}
		text, _, ok := tw.gens.get(k.gen)
		var s *schema.Schema
		if ok {
			s, _ = sdl.ParseString(text)
		}
		oracles[k.gen] = newOracle(s)
	}
	wrong := make([]bool, len(items))
	parallel(len(items), func(i int) {
		k := items[i]
		o := oracles[k.gen]
		if o.s == nil {
			wrong[i] = true
			return
		}
		want, err := o.expectKeystroke(k.expr)
		if k.kind == session.TypeError {
			wrong[i] = err == nil
			return
		}
		if err != nil {
			wrong[i] = true
			return
		}
		if perturb != nil {
			b, _ := json.Marshal(want)
			if p := perturb(i, b); string(p) != string(b) {
				want = nil
				if json.Unmarshal(p, &want) != nil {
					wrong[i] = true
					return
				}
			}
		}
		wrong[i] = !sameCompletions(candidatesJSON(k.answer), want)
	})
	for _, w := range wrong {
		if w {
			failed++
		}
	}
	return failed
}
