// Command pathc completes incomplete path expressions against a
// schema:
//
//	pathc -schema university 'ta~name'
//	pathc -schema parts 'motor~shaft'
//	pathc -sdl my_schema.sdl 'order~total'
//	pathc -schema university            # interactive: one expression per line
//	pathc -server http://localhost:8080 -v 'ta~name'   # remote via the /v1 API
//	pathc -server http://localhost:8080 -follow -stats # interactive keystroke session
//
// Flags select the engine preset (-engine paper|safe|exact), the AGG*
// parameter (-e), excluded classes (-exclude a,b,c), and whether to
// evaluate the completions against the built-in sample data (-eval,
// university schema only). With -server, completion runs against a
// live pathserve through the versioned /v1 surface, and -v prints the
// response meta — which engine answered (the materialized closure
// index or the search kernel) and at which schema generation.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/fox"
	"pathcomplete/internal/objstore"
	"pathcomplete/internal/parts"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/sdl"
	"pathcomplete/internal/uni"
)

func main() {
	var (
		schemaName = flag.String("schema", "university", "built-in schema: university, parts, or cupid")
		sdlPath    = flag.String("sdl", "", "load the schema from an SDL file instead")
		engine     = flag.String("engine", "paper", "engine preset: paper, safe, or exact")
		e          = flag.Int("e", 1, "AGG* parameter: keep the E lowest semantic lengths")
		exclude    = flag.String("exclude", "", "comma-separated classes to exclude (domain knowledge)")
		eval       = flag.Bool("eval", false, "evaluate completions against sample data (university only)")
		stats      = flag.Bool("stats", false, "print traversal statistics")
		explain    = flag.Bool("explain", false, "print the label derivation of each completion")
		specific   = flag.Bool("specific", false, "prefer more specific classes among label ties")
		why        = flag.Bool("why", false, "compare exactly two complete expressions instead of completing")
		storePath  = flag.String("store", "", "load object data from a snapshot (requires -sdl; enables -eval)")
		dot        = flag.Bool("dot", false, "emit the schema in DOT form with the completions' edges highlighted")
		trace      = flag.Bool("trace", false, "print the traversal event log of each search; with -server, force-sample the request and pretty-print its server-side span trace")
		traceLimit = flag.Int("trace-limit", 0, "cap the trace at N events (0: default cap, negative: unlimited)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget per search (0: none); an expired search prints its valid best-so-far completions")
		parallel   = flag.Int("parallel", 0, "fan root branches across N workers per search (0 or 1: sequential)")
		batch      = flag.Bool("batch", false, "batch mode: read one expression per line from stdin, complete them concurrently, print results in input order")
		workers    = flag.Int("workers", 4, "batch-mode concurrency (searches in flight at once)")
		serverURL  = flag.String("server", "", "complete against a running pathserve at this base URL via the /v1 API instead of the in-process engine (e.g. http://localhost:8080)")
		verbose    = flag.Bool("v", false, "with -server: print the response meta (engine, schema generation, cacheHit, durationMs)")
		retries    = flag.Int("retries", 0, "with -server: retry a request answered 429 or 503 up to N times, honoring the Retry-After header with bounded jittered backoff (0: fail immediately, today's behavior)")
		follow     = flag.Bool("follow", false, "with -server: open an interactive keystroke session (/v1/sessions WebSocket) — each stdin line is one typing state, answers stream and refine as you narrow the expression")
	)
	flag.Parse()
	if *follow && *serverURL == "" {
		fmt.Fprintln(os.Stderr, "pathc: -follow requires -server (sessions are a pathserve surface)")
		os.Exit(2)
	}
	if *serverURL != "" {
		switch {
		case *eval, *dot, *explain, *why:
			fmt.Fprintln(os.Stderr, "pathc: -eval, -dot, -explain, and -why are local-engine features; drop them to use -server")
			os.Exit(2)
		case *sdlPath != "" || *storePath != "":
			fmt.Fprintln(os.Stderr, "pathc: -sdl and -store are local-engine flags; with -server the schema is picked with -schema <served-name>")
			os.Exit(2)
		}
		// -schema is sent as ?schema= only when explicitly set: its
		// local default ("university") must not override the server's
		// default schema.
		schemaSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "schema" {
				schemaSet = true
			}
		})
		if *retries < 0 {
			fmt.Fprintln(os.Stderr, "pathc: -retries must be >= 0")
			os.Exit(2)
		}
		rc := remoteConfig{
			base: *serverURL, e: *e, timeout: *timeout, verbose: *verbose,
			stats: *stats, batch: *batch, workers: *workers, trace: *trace,
			retries: *retries,
		}
		if schemaSet {
			rc.schema = *schemaName
		}
		if *follow {
			if *batch || *trace {
				fmt.Fprintln(os.Stderr, "pathc: -follow and -batch/-trace are mutually exclusive")
				os.Exit(2)
			}
			if err := runFollow(rc, os.Stdin, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "pathc:", err)
				os.Exit(1)
			}
			return
		}
		if err := runRemote(rc, flag.Args(), os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pathc:", err)
			os.Exit(1)
		}
		return
	}
	if *why {
		if err := runWhy(*schemaName, *sdlPath, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "pathc:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(config{
		schemaName: *schemaName, sdlPath: *sdlPath, engine: *engine, e: *e,
		exclude: *exclude, eval: *eval, stats: *stats, explain: *explain,
		specific: *specific, storePath: *storePath, dot: *dot,
		trace: *trace, traceLimit: *traceLimit, timeout: *timeout,
		parallel: *parallel, batch: *batch, workers: *workers,
	}, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "pathc:", err)
		os.Exit(1)
	}
}

// config carries the parsed flags.
type config struct {
	schemaName, sdlPath, engine, exclude, storePath string
	e, traceLimit, parallel, workers                int
	eval, stats, explain, specific, dot, trace      bool
	batch                                           bool
	timeout                                         time.Duration
}

// runWhy handles -why: explain the AGG comparison of two complete
// expressions.
func runWhy(schemaName, sdlPath string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-why takes exactly two complete path expressions")
	}
	s, _, err := loadSchema(schemaName, sdlPath)
	if err != nil {
		return err
	}
	a, err := pathexpr.Parse(args[0])
	if err != nil {
		return err
	}
	b, err := pathexpr.Parse(args[1])
	if err != nil {
		return err
	}
	out, err := core.Why(s, a, b)
	if err != nil {
		return err
	}
	fmt.Println(out)
	return nil
}

func run(cfg config, args []string) error {
	s, store, err := loadSchema(cfg.schemaName, cfg.sdlPath)
	if err != nil {
		return err
	}
	if cfg.storePath != "" {
		f, err := os.Open(cfg.storePath)
		if err != nil {
			return err
		}
		store, err = objstore.Load(s, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	opts, err := preset(cfg.engine)
	if err != nil {
		return err
	}
	opts.E = cfg.e
	opts.PreferSpecific = cfg.specific
	if cfg.timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0, got %v", cfg.timeout)
	}
	opts.Deadline = cfg.timeout
	if cfg.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", cfg.parallel)
	}
	opts.Parallel = cfg.parallel
	if cfg.exclude != "" {
		opts.Exclude = make(map[schema.ClassID]bool)
		for _, name := range strings.Split(cfg.exclude, ",") {
			c, ok := s.ClassByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown excluded class %q", name)
			}
			opts.Exclude[c.ID] = true
		}
	}
	eval, stats := cfg.eval, cfg.stats
	cmp := core.New(s, opts)

	runOne := func(src string) {
		expr, err := pathexpr.Parse(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "  error:", err)
			return
		}
		var rec *core.TraceRecorder
		var so core.SearchOptions
		if cfg.trace {
			// A tracer is per-query state: give each traced search its
			// own recorder.
			rec = core.NewTraceRecorder(s, cfg.traceLimit)
			so.Tracer = rec
		}
		res, err := cmp.CompleteWith(context.Background(), expr, so)
		if err != nil {
			fmt.Fprintln(os.Stderr, "  error:", err)
			return
		}
		if rec != nil {
			printTrace(os.Stdout, rec)
		}
		if len(res.Completions) == 0 {
			if res.Aborted {
				fmt.Printf("  (search stopped early: %s, before any completion was found)\n", res.StopReason)
			} else {
				fmt.Println("  (no consistent completion)")
			}
			return
		}
		for _, c := range res.Completions {
			fmt.Printf("  %-60s %s\n", c.Path, c.Label)
			if cfg.explain {
				if err := core.Explain(os.Stdout, c); err != nil {
					fmt.Fprintln(os.Stderr, "  explain error:", err)
				}
			}
		}
		if res.Truncated {
			fmt.Println("  (answer set truncated)")
		}
		if res.Aborted {
			fmt.Printf("  (search stopped early: %s; the completions above are the valid best-so-far subset)\n",
				res.StopReason)
		}
		if cfg.dot {
			hl := make(map[schema.RelID]bool)
			for _, c := range res.Completions {
				for _, rid := range c.Path.Rels {
					hl[rid] = true
				}
			}
			if err := s.WriteDOTHighlighted(os.Stdout, hl); err != nil {
				fmt.Fprintln(os.Stderr, "  dot error:", err)
			}
		}
		if stats {
			fmt.Printf("  calls=%d offers=%d prunedT=%d prunedU=%d cautionSaves=%d\n",
				res.Stats.Calls, res.Stats.Offers, res.Stats.PrunedBestT,
				res.Stats.PrunedBestU, res.Stats.CautionSaves)
		}
		if eval && store != nil {
			in := fox.New(store, opts, fox.AcceptAll)
			ans, err := in.Query(src)
			if err != nil {
				fmt.Fprintln(os.Stderr, "  eval error:", err)
				return
			}
			fmt.Printf("  answer objects: %v\n", ans.Values)
		}
	}

	if cfg.batch {
		if cfg.trace {
			return fmt.Errorf("-batch and -trace are mutually exclusive (a trace is per-query state)")
		}
		return runBatch(cmp, cfg, os.Stdin, os.Stdout)
	}
	if len(args) > 0 {
		for _, src := range args {
			fmt.Printf("%s\n", src)
			runOne(src)
		}
		return nil
	}
	fmt.Printf("schema %s: %d classes, %d relationships. Enter path expressions (one per line):\n",
		s.Name(), s.NumUserClasses(), s.NumRels())
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line == "quit" || line == "exit" {
			if line != "" {
				break
			}
			continue
		}
		runOne(line)
	}
	return sc.Err()
}

// runBatch reads one incomplete expression per line from r, completes
// them all concurrently through CompleteBatchContext, and prints the
// answers in input order. Parse errors and search errors are reported
// inline on the offending line without aborting the batch.
func runBatch(cmp *core.Completer, cfg config, r io.Reader, w io.Writer) error {
	var (
		lines []string
		exprs []pathexpr.Expr
		perrs []error
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, line)
		e, err := pathexpr.Parse(line)
		perrs = append(perrs, err)
		exprs = append(exprs, e)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// Complete only the parseable lines, then splice the answers back
	// into input order.
	var valid []pathexpr.Expr
	idx := make([]int, 0, len(exprs))
	for i, e := range exprs {
		if perrs[i] == nil {
			valid = append(valid, e)
			idx = append(idx, i)
		}
	}
	results := make([]*core.Result, len(exprs))
	errs := make([]error, len(exprs))
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	res, rerrs := cmp.CompleteBatchContext(ctx, valid, cfg.workers)
	for j, i := range idx {
		results[i], errs[i] = res[j], rerrs[j]
	}
	for i, line := range lines {
		fmt.Fprintf(w, "%s\n", line)
		switch {
		case perrs[i] != nil:
			fmt.Fprintf(w, "  error: %v\n", perrs[i])
		case errs[i] != nil:
			fmt.Fprintf(w, "  error: %v\n", errs[i])
		case len(results[i].Completions) == 0:
			fmt.Fprintln(w, "  (no consistent completion)")
		default:
			for _, c := range results[i].Completions {
				fmt.Fprintf(w, "  %-60s %s\n", c.Path, c.Label)
			}
			if results[i].Aborted {
				fmt.Fprintf(w, "  (search stopped early: %s)\n", results[i].StopReason)
			}
		}
		if cfg.stats && results[i] != nil {
			st := results[i].Stats
			fmt.Fprintf(w, "  calls=%d offers=%d prunedT=%d prunedU=%d cautionSaves=%d\n",
				st.Calls, st.Offers, st.PrunedBestT, st.PrunedBestU, st.CautionSaves)
		}
	}
	return nil
}

func loadSchema(name, sdlPath string) (*schema.Schema, *objstore.Store, error) {
	if sdlPath != "" {
		f, err := os.Open(sdlPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		s, err := sdl.Parse(f)
		return s, nil, err
	}
	switch name {
	case "university":
		st := uni.SampleStore()
		return st.Schema(), st, nil
	case "parts":
		return parts.New(), nil, nil
	case "cupid":
		w, err := cupid.Generate(cupid.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		return w.Schema, nil, nil
	}
	return nil, nil, fmt.Errorf("unknown schema %q (want university, parts, or cupid)", name)
}

// printTrace renders the recorded traversal event log, one line per
// event, indented under the query like the other per-query output.
func printTrace(w io.Writer, rec *core.TraceRecorder) {
	fmt.Fprintf(w, "  trace: %d events", len(rec.Events))
	if rec.Dropped > 0 {
		fmt.Fprintf(w, " (+%d dropped beyond the limit)", rec.Dropped)
	}
	fmt.Fprintln(w)
	for _, ev := range rec.Events {
		switch ev.Kind {
		case "enter":
			fmt.Fprintf(w, "    %5d %-14s %s seg=%d depth=%d %s\n",
				ev.Step, ev.Kind, ev.Class, ev.Seg, ev.Depth, ev.Label)
		case "offer", "offer_rejected":
			fmt.Fprintf(w, "    %5d %-14s %s %s\n", ev.Step, ev.Kind, ev.Path, ev.Label)
		case "preempt":
			fmt.Fprintf(w, "    %5d %-14s %s (shadowed by %s)\n", ev.Step, ev.Kind, ev.Path, ev.By)
		default: // prune_* and caution_save
			fmt.Fprintf(w, "    %5d %-14s %s -> %s seg=%d %s\n",
				ev.Step, ev.Kind, ev.Rel, ev.Class, ev.Seg, ev.Label)
		}
	}
}

func preset(name string) (core.Options, error) {
	switch name {
	case "paper":
		return core.Paper(), nil
	case "safe":
		return core.Safe(), nil
	case "exact":
		return core.Exact(), nil
	}
	return core.Options{}, fmt.Errorf("unknown engine %q (want paper, safe, or exact)", name)
}
