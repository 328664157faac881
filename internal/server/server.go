// Package server exposes the disambiguation mechanism as an HTTP/JSON
// service — the shape an interactive interface of the kind the paper
// targets (Figure 1) would consume. The server is multi-schema: it
// serves every schema in a registry.Registry, pinning each request to
// one immutable schema snapshot for its whole lifetime, and supports
// hot reload with atomic swap. Endpoints:
//
//	GET  /healthz            liveness (JSON: status, schemas, uptime)
//	GET  /readyz             readiness: 200 once the default schema is
//	                         installed and recovery has finished, 503
//	                         while starting or draining (see persist.go);
//	                         like /healthz, never gated by admission
//	GET  /schemas            the served schemas (JSON: name, generation,
//	                         shape, which is the default)
//	POST /schemas/reload     reparse the SDL directory and swap
//	                         atomically (in-flight searches finish on
//	                         their old snapshot)
//	GET  /schema?schema=S    schema S in SDL text form (default schema
//	                         when the parameter is absent; same for all
//	                         endpoints below)
//	GET  /stats              schema shape statistics (JSON)
//	GET  /metrics            Prometheus text exposition (search effort,
//	                         latency histograms, cache, HTTP, per-schema
//	                         labeled families with bounded cardinality)
//	GET  /buildinfo          build and runtime introspection (JSON)
//	POST /complete           {"expr": "ta~name", "e": 2} →
//	                         candidate completions with labels and stats;
//	                         add "trace": true for the traversal event log
//	POST /completeBatch      {"queries": [{"expr": ...}, ...]} →
//	                         positional results for a whole batch under
//	                         one admission slot and one schema snapshot
//	POST /evaluate           {"expr": "ta~name", "approve": [0]} →
//	                         the evaluation of the approved completions
//	                         (requires an object store on the snapshot)
//
// net/http/pprof can additionally be mounted under /debug/pprof/ via
// HandlerConfig.PProf.
//
// Completion results are memoized per (schema, generation, expression,
// E) in a sharded LRU bounded by both an entry cap and a global byte
// budget; a reload moves traffic to fresh shards and invalidates the
// superseded ones. Identical cold queries collapse via singleflight
// under the same generation-qualified key, so a reload also invalidates
// collapsed in-flight sharing. Every request is instrumented: global
// and per-schema counters, latency histograms, per-search effort
// aggregates from core.Stats, and (when a logger is configured)
// structured request logs keyed by request ID.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/faultinject"
	"pathcomplete/internal/fox"
	"pathcomplete/internal/objstore"
	"pathcomplete/internal/obs"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/registry"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/sdl"

	"log/slog"
)

// Routes lists every route the server can mount, in the form the
// obs middleware uses to normalize metric labels ("/v1/schemas/"
// covers the per-name wildcard paths by prefix).
var Routes = []string{
	"/healthz", "/readyz", "/schema", "/schemas", "/schemas/reload", "/stats",
	"/metrics", "/buildinfo", "/complete", "/completeBatch", "/evaluate",
	"/v1/complete", "/v1/completeBatch", "/v1/evaluate", "/v1/explain",
	"/v1/schemas", "/v1/schemas/{name}", "/v1/schemas/reload",
	"/v1/traces", "/v1/traces/{id}", "/v1/queries/slow", "/v1/sessions",
	"/debug/pprof/",
}

// Server serves every schema of one registry. It is safe for
// concurrent use.
type Server struct {
	reg   *registry.Registry
	opts  core.Options
	start time.Time

	metReg *obs.Registry
	met    *metrics
	httpM  *obs.HTTPMetrics
	traceP *obs.TracePipeline
	logger *slog.Logger // set by HandlerWith before serving

	lim     Limits
	gate    *gate
	flights *flightGroup

	// draining flips true at BeginDrain: /readyz answers 503 from then
	// on, while /healthz (liveness) keeps answering 200.
	draining atomic.Bool

	// depWarned tracks which deprecated routes already logged their
	// one-time warning.
	depWarned sync.Map

	// legacyRoutes selects how the pre-/v1 surface is served: LegacyOn,
	// LegacyWarn (the default when empty), or LegacyOff (410 Gone). Set
	// via SetLegacyRoutes before serving.
	legacyRoutes string

	// sessions counts open interactive sessions against
	// Limits.MaxSessions.
	sessions atomic.Int64

	mu    sync.Mutex
	cache *shardedCache
}

// New returns a single-schema server over s with the given base engine
// options; store may be nil when only completion is wanted. It is
// NewFromRegistry over a static one-entry registry — the construction
// every single-tenant caller and test uses.
func New(s *schema.Schema, store *objstore.Store, opts core.Options) *Server {
	return NewFromRegistry(registry.Static(s, store, opts))
}

// NewFromRegistry returns a server over every schema the registry
// serves (including ones that appear in later reloads). The server
// carries its own metrics registry (see Registry), a sharded memo
// cache bounded by DefaultCacheCap entries and DefaultCacheBudget
// bytes (see SetCacheCap, SetCacheBudget), and the default
// request-path limits (see SetLimits).
func NewFromRegistry(reg *registry.Registry) *Server {
	metReg := obs.NewRegistry()
	lim := DefaultLimits()
	sv := &Server{
		reg:     reg,
		opts:    reg.Options(),
		start:   time.Now(),
		metReg:  metReg,
		met:     newMetrics(metReg),
		httpM:   obs.NewHTTPMetrics(metReg),
		lim:     lim,
		gate:    newGate(lim.MaxConcurrent, lim.MaxQueue),
		flights: newFlightGroup(),
		cache:   newShardedCache(DefaultCacheCap, DefaultCacheBudget),
		// The default pipeline head-samples nothing and has no slow
		// threshold, so only a client that forces sampling (traceparent
		// with the sampled flag) pays for span recording; SetTracing
		// turns the knobs up.
		traceP: obs.NewTracePipeline(obs.TraceConfig{}),
	}
	sv.httpM.SetTracing(sv.traceP)
	obs.RegisterRuntimeMetrics(metReg)
	poolServed := metReg.Counter("pathcomplete_engine_pool_served_total",
		"Search engine checkouts served from the sync.Pool rather than freshly allocated.")
	metReg.OnScrape(func() { poolServed.SyncTo(core.EnginePoolServed()) })
	reg.OnRetire(func(*registry.Snapshot) {
		sv.met.snapshotsLive.Set(int64(reg.Live()))
	})
	sv.syncSchemaGauges()
	return sv
}

// SetTracing replaces the server's span pipeline with one built from
// cfg — how pathserve's -trace-sample, -slow-threshold, and
// -span-buffer flags take effect. Call before serving traffic.
func (sv *Server) SetTracing(cfg obs.TraceConfig) {
	sv.traceP = obs.NewTracePipeline(cfg)
	sv.httpM.SetTracing(sv.traceP)
}

// Tracing returns the server's span pipeline (what /v1/traces and
// /v1/queries/slow serve).
func (sv *Server) Tracing() *obs.TracePipeline { return sv.traceP }

// SchemaRegistry returns the schema registry the server serves.
func (sv *Server) SchemaRegistry() *registry.Registry { return sv.reg }

// Registry returns the server's metrics registry (what GET /metrics
// exposes), so a binary embedding the server can register its own
// metrics alongside.
func (sv *Server) Registry() *obs.Registry { return sv.metReg }

// SetCacheCap rebounds the completion memo cache to at most n entries
// (n <= 0 restores DefaultCacheCap), dropping the current contents.
// Call it before serving traffic.
func (sv *Server) SetCacheCap(n int) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	budget := int64(DefaultCacheBudget)
	if sv.cache != nil {
		budget = sv.cache.budget
	}
	sv.cache = newShardedCache(n, budget)
	sv.met.cacheSize.Set(0)
	sv.met.cacheBytes.Set(0)
}

// SetCacheBudget rebounds the cache's global byte budget across all
// schema shards (n <= 0 restores DefaultCacheBudget), dropping the
// current contents. Call it before serving traffic.
func (sv *Server) SetCacheBudget(n int64) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	cap := DefaultCacheCap
	if sv.cache != nil {
		cap = sv.cache.maxEntries
	}
	sv.cache = newShardedCache(cap, n)
	sv.met.cacheSize.Set(0)
	sv.met.cacheBytes.Set(0)
}

// ReloadSchemas reloads the registry from its SDL directory (atomic
// swap; see registry.Registry.Reload), then drops the cache shards of
// every superseded snapshot and refreshes the per-schema gauges. It is
// the one reload entry point the serving layer exposes — the HTTP
// /schemas/reload handler and the SIGHUP handler both route here.
func (sv *Server) ReloadSchemas() error {
	if err := sv.reg.Reload(); err != nil {
		sv.met.reloadFailures.Inc()
		return err
	}
	sv.met.reloads.Inc()
	sv.dropStaleShards()
	sv.syncSchemaGauges()
	return nil
}

// dropStaleShards invalidates cache shards whose (schema, generation)
// no longer matches a served snapshot. Live shards are untouched:
// invalidation is per-shard by construction, never cross-schema.
func (sv *Server) dropStaleShards() {
	gens := sv.reg.Generations()
	sv.mu.Lock()
	dropped := sv.cache.dropStale(func(id shardID) bool {
		gen, ok := gens[id.schema]
		return ok && gen == id.gen
	})
	size, bytes := sv.cache.len(), sv.cache.bytes()
	sv.mu.Unlock()
	if dropped > 0 {
		sv.met.cacheInvalidations.Add(uint64(dropped))
	}
	sv.met.cacheSize.Set(int64(size))
	sv.met.cacheBytes.Set(bytes)
}

// syncSchemaGauges refreshes the registry-shape gauges (per-schema
// generation, live snapshot count).
func (sv *Server) syncSchemaGauges() {
	for name, gen := range sv.reg.Generations() {
		sv.met.schemaGeneration.With(sv.met.schemaLabel(name)).Set(int64(gen))
	}
	sv.met.snapshotsLive.Set(int64(sv.reg.Live()))
}

// HandlerConfig configures optional handler features.
type HandlerConfig struct {
	// Logger, when non-nil, receives one structured line per request
	// (request ID, method, path, status, bytes, duration, remote).
	Logger *slog.Logger
	// PProf mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints can stall the process and do not belong on
	// an unauthenticated public port.
	PProf bool
}

// Handler returns the HTTP handler with all standard endpoints
// mounted and metrics instrumentation installed (no request logging,
// no pprof).
func (sv *Server) Handler() http.Handler { return sv.HandlerWith(HandlerConfig{}) }

// HandlerWith is Handler with the optional features configured.
func (sv *Server) HandlerWith(cfg HandlerConfig) http.Handler {
	sv.logger = cfg.Logger
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", sv.handleHealthz)
	mux.HandleFunc("GET /readyz", sv.handleReadyz)
	mux.HandleFunc("GET /schema", sv.handleSchema)
	mux.HandleFunc("GET /schemas", sv.handleSchemas)
	mux.HandleFunc("POST /schemas/reload", sv.handleReload)
	mux.HandleFunc("GET /stats", sv.handleStats)
	mux.HandleFunc("GET /buildinfo", sv.handleBuildInfo)
	mux.Handle("GET /metrics", sv.metReg.Handler())
	mux.HandleFunc("POST /complete", sv.handleComplete)
	mux.HandleFunc("POST /completeBatch", sv.handleCompleteBatch)
	mux.HandleFunc("POST /evaluate", sv.handleEvaluate)
	// The versioned surface mounts the same handlers; the response
	// layer renders the v1 envelope when the path carries the /v1/
	// prefix (see v1.go).
	mux.HandleFunc("POST /v1/complete", sv.handleComplete)
	mux.HandleFunc("POST /v1/completeBatch", sv.handleCompleteBatch)
	mux.HandleFunc("POST /v1/evaluate", sv.handleEvaluate)
	mux.HandleFunc("GET /v1/explain", sv.handleExplain)
	mux.HandleFunc("POST /v1/explain", sv.handleExplain)
	mux.HandleFunc("GET /v1/schemas", sv.handleSchemas)
	mux.HandleFunc("GET /v1/schemas/{name}", sv.handleSchemaByName)
	mux.HandleFunc("POST /v1/schemas/reload", sv.handleReload)
	mux.HandleFunc("GET /v1/traces", sv.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", sv.handleTraceByID)
	mux.HandleFunc("GET /v1/queries/slow", sv.handleSlowQueries)
	mux.HandleFunc("GET /v1/sessions", sv.handleSessions)
	if cfg.PProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Chain, outermost first: metrics/logging (so a recovered panic is
	// still counted and logged with its request ID), request start
	// stamp (so v1 envelopes report durationMs even from the panic
	// responder), panic recovery, body size cap, deprecation stamping,
	// routing.
	return sv.httpM.Wrap(cfg.Logger, Routes,
		withStart(sv.recoverPanics(sv.limitBodies(sv.deprecate(mux)))))
}

// limitBodies caps every request body with http.MaxBytesReader, so a
// handler's JSON decoder fails fast (413 via decodeStatus) instead of
// buffering an unbounded body.
func (sv *Server) limitBodies(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, sv.lim.MaxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// recoveryWriter tracks whether the wrapped handler wrote anything, so
// the recovery middleware only answers 500 for panics that happened
// before the response started.
type recoveryWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *recoveryWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *recoveryWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// Hijack lets the WebSocket session endpoint take the connection
// through the recovery middleware; a hijacked response counts as
// written (a later panic cannot be answered with a JSON 500).
func (w *recoveryWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := w.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("server: underlying ResponseWriter does not support hijacking")
	}
	conn, rw, err := hj.Hijack()
	if err == nil {
		w.wrote = true
	}
	return conn, rw, err
}

// recoverPanics isolates handler panics: the panic is counted and
// logged (with the request ID the obs middleware stamped on the
// response), the client gets a JSON 500 if the response had not
// started, and the process keeps serving. http.ErrAbortHandler keeps
// its net/http meaning (abort the connection) and is re-raised.
func (sv *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &recoveryWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			sv.met.panicsRecovered.Inc()
			if sv.logger != nil {
				sv.logger.LogAttrs(r.Context(), slog.LevelError, "panic recovered",
					slog.String("id", w.Header().Get(obs.RequestIDHeader)),
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Any("panic", rec),
					slog.String("stack", string(debug.Stack())),
				)
			}
			if !rw.wrote {
				sv.jsonError(rw, r, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(rw, r)
	})
}

// acquireSnapshot resolves the request's schema (the "schema" query
// parameter; absent means the registry default) to a pinned snapshot.
// On failure it answers 404 itself and returns ok=false. On success
// the caller must call Release exactly once.
func (sv *Server) acquireSnapshot(w http.ResponseWriter, r *http.Request) (*registry.Snapshot, bool) {
	_, span := obs.StartSpan(r.Context(), "snapshot")
	sn, ok := sv.resolveSchema(w, r, r.URL.Query().Get("schema"))
	if !ok {
		span.SetError("schema resolution failed")
	}
	span.End()
	return sn, ok
}

func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sv.writeJSON(w, r, http.StatusOK, map[string]any{
		"status":        "ok",
		"schema":        sv.reg.DefaultName(),
		"schemas":       len(sv.reg.Names()),
		"generation":    sv.reg.Generation(),
		"uptimeSeconds": time.Since(sv.start).Seconds(),
	})
}

// SchemaInfoJSON is one entry of a /schemas listing.
type SchemaInfoJSON struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
	Classes    int    `json:"classes"`
	Rels       int    `json:"rels"`
	Default    bool   `json:"default,omitempty"`
	Store      bool   `json:"store,omitempty"`
	// Closure reports the snapshot's all-pairs index lifecycle:
	// "ready", "building", or "disabled".
	Closure string `json:"closure,omitempty"`
}

// SchemasResponse is the body of a /schemas response.
type SchemasResponse struct {
	Default    string           `json:"default"`
	Generation uint64           `json:"generation"`
	Schemas    []SchemaInfoJSON `json:"schemas"`
}

func (sv *Server) handleSchemas(w http.ResponseWriter, r *http.Request) {
	out := SchemasResponse{
		Default:    sv.reg.DefaultName(),
		Generation: sv.reg.Generation(),
		Schemas:    []SchemaInfoJSON{},
	}
	for _, name := range sv.reg.Names() {
		sn, err := sv.reg.Acquire(name)
		if err != nil {
			continue // raced with a reload that dropped the name
		}
		out.Schemas = append(out.Schemas, SchemaInfoJSON{
			Name:       sn.Name(),
			Generation: sn.Generation(),
			Classes:    sn.Schema().NumUserClasses(),
			Rels:       sn.Schema().NumRels(),
			Default:    sn.Name() == out.Default,
			Store:      sn.Store() != nil,
			Closure:    string(sn.ClosureStatus().State),
		})
		sn.Release()
	}
	sv.respond(w, r, http.StatusOK, out, nil)
}

func (sv *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if err := sv.ReloadSchemas(); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, registry.ErrNoDir) {
			status = http.StatusConflict
		}
		sv.jsonError(w, r, status, err.Error())
		return
	}
	names := sv.reg.Names()
	if sv.logger != nil {
		sv.logger.LogAttrs(r.Context(), slog.LevelInfo, "schemas reloaded",
			slog.String("id", w.Header().Get(obs.RequestIDHeader)),
			slog.Uint64("generation", sv.reg.Generation()),
			slog.Int("schemas", len(names)),
		)
	}
	sv.respond(w, r, http.StatusOK, map[string]any{
		"status":     "reloaded",
		"generation": sv.reg.Generation(),
		"schemas":    names,
	}, nil)
}

func (sv *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"goVersion":  runtime.Version(),
		"goroutines": runtime.NumGoroutine(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"os":         runtime.GOOS,
		"arch":       runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		out["module"] = bi.Main.Path
		out["version"] = bi.Main.Version
		settings := make(map[string]string)
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision", "vcs.time", "vcs.modified", "GOFLAGS":
				settings[s.Key] = s.Value
			}
		}
		if len(settings) > 0 {
			out["build"] = settings
		}
	}
	sv.writeJSON(w, r, http.StatusOK, out)
}

// handleSchema serves the legacy GET /schema endpoint: the SDL text
// of the default (or ?schema=-named) schema. It is an alias of GET
// /v1/schemas/{name} — both resolve through resolveSchema, so the two
// surfaces can never disagree about a name — rendered as text/plain
// for legacy clients, and counted under the deprecation metric by the
// deprecate middleware like every other pre-/v1 route.
func (sv *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	sn, ok := sv.acquireSnapshot(w, r)
	if !ok {
		return
	}
	defer sn.Release()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := sdl.Write(w, sn.Schema()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (sv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sn, ok := sv.acquireSnapshot(w, r)
	if !ok {
		return
	}
	defer sn.Release()
	st := sn.Schema().ComputeStats()
	kinds := make(map[string]int, len(st.RelsByKind))
	for k, n := range st.RelsByKind {
		kinds[k.String()] = n
	}
	out := map[string]any{
		"schema":      sn.Schema().Name(),
		"name":        sn.Name(),
		"generation":  sn.Generation(),
		"userClasses": st.UserClasses,
		"rels":        st.Rels,
		"relsByKind":  kinds,
		"maxIsaDepth": st.MaxIsaDepth,
		"closure":     sn.ClosureStatus(),
	}
	if b := sv.reg.ClosureBuilder(); b != nil {
		out["closureBudget"] = map[string]int64{
			"usedBytes": b.Budget().Used(),
			"maxBytes":  b.Budget().Max(),
		}
	}
	if ps := sv.reg.PersistStore(); ps != nil {
		out["persist"] = ps.Stats()
		out["persistStatus"] = sv.persistStatus(sn.Name(), sn.ClosureStatus().Restored)
	}
	sv.writeJSON(w, r, http.StatusOK, out)
}

// CompleteRequest is the body of POST /complete and POST /evaluate,
// and one element of POST /completeBatch.
type CompleteRequest struct {
	// Expr is the (possibly incomplete) path expression.
	Expr string `json:"expr"`
	// E overrides the AGG* parameter (0 keeps the server default).
	E int `json:"e,omitempty"`
	// Approve lists, for /evaluate, the indices of the approved
	// completions; empty approves all.
	Approve []int `json:"approve,omitempty"`
	// Trace requests the structured traversal event log for this
	// query. Traced requests always run a fresh search (the memo cache
	// is bypassed on lookup, though the result is still stored).
	Trace bool `json:"trace,omitempty"`
	// TraceLimit caps the number of returned trace events (0:
	// core.DefaultTraceLimit; bounded by Limits.MaxTraceEvents).
	TraceLimit int `json:"traceLimit,omitempty"`
	// TimeoutMs bounds the wall-clock time of this request's search in
	// milliseconds, capped by the server's Limits.MaxTimeout (0: the
	// server default). A timeout that expires mid-search is not an
	// error: the response is HTTP 200 with the valid best-so-far
	// completions and a non-empty stopReason.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// CompletionJSON is one candidate in a completion response.
type CompletionJSON struct {
	Path   string `json:"path"`
	Conn   string `json:"conn"`
	SemLen int    `json:"semlen"`
}

// SearchStatsJSON mirrors core.Stats for one query.
type SearchStatsJSON struct {
	Calls        int `json:"calls"`
	Offers       int `json:"offers"`
	PrunedBestT  int `json:"prunedBestT"`
	PrunedBestU  int `json:"prunedBestU"`
	CautionSaves int `json:"cautionSaves"`
}

// CompleteResponse is the body of a /complete response.
type CompleteResponse struct {
	Expr string `json:"expr"`
	// Schema and Generation identify the snapshot that answered: the
	// schema name and the registry generation it was loaded at.
	Schema      string           `json:"schema,omitempty"`
	Generation  uint64           `json:"generation,omitempty"`
	Completions []CompletionJSON `json:"completions"`
	Calls       int              `json:"calls"`
	Truncated   bool             `json:"truncated,omitempty"`
	Exhausted   bool             `json:"exhausted,omitempty"`
	Cached      bool             `json:"cached,omitempty"`
	// Aborted and StopReason report graceful degradation: a bound
	// (call budget, deadline, or cancellation) stopped the search,
	// and the completions are the valid best-so-far subset.
	Aborted    bool   `json:"aborted,omitempty"`
	StopReason string `json:"stopReason,omitempty"`
	// Shared reports that this response was computed by a concurrent
	// identical request and shared via singleflight.
	Shared bool `json:"shared,omitempty"`
	// Engine identifies the subsystem that produced the answer:
	// "closure" (materialized all-pairs index) or "search" (kernel).
	Engine string `json:"engine,omitempty"`
	// Stats carries the per-query effort counters when the search ran
	// (absent on a cache hit).
	Stats *SearchStatsJSON `json:"stats,omitempty"`
	// Trace holds the traversal event log when the request asked for
	// one; TraceDropped counts events beyond the recorder limit.
	Trace        []core.TraceEvent `json:"trace,omitempty"`
	TraceDropped int               `json:"traceDropped,omitempty"`
}

// completed bundles what a completion route needs from one answer: the
// result and the plan that produced it (a cache or singleflight hit
// keeps the plan's engine, "search").
type completed struct {
	planned
	res    *core.Result
	expr   pathexpr.Expr
	cached bool
	shared bool
	rec    *core.TraceRecorder
}

// complete parses one query and answers it along its plan: the closure
// cell on a hit, a fresh recorded search for a trace, and otherwise
// the memo cache, then singleflight, then search.
func (sv *Server) complete(ctx context.Context, sn *registry.Snapshot, req CompleteRequest) (completed, int, error) {
	if err := faultinject.Inject("server.complete"); err != nil {
		return completed{}, http.StatusInternalServerError, err
	}
	e, err := pathexpr.Parse(req.Expr)
	if err != nil {
		return completed{}, http.StatusBadRequest, err
	}
	// Stamp the query attributes on the nearest span (the request root,
	// or the per-item span of a batch): these are what the slow-query
	// log keys its entries on.
	if s := obs.SpanFromContext(ctx); s != nil {
		s.SetAttr(obs.AttrExpr, e.String())
		s.SetAttr(obs.AttrShape, exprShape(e))
		s.SetAttr(obs.AttrSchema, sn.Name())
	}
	p, cell := sv.plan(ctx, sn, &req, e)
	switch p.reason {
	case reasonHit:
		sv.met.closureHits.Inc()
		return completed{planned: p, res: cell, expr: e}, http.StatusOK, nil
	case reasonNotReady, reasonCellMissing:
		sv.met.closureMisses.Inc()
	default:
		sv.met.closureFallbacks.Inc()
	}
	so := core.SearchOptions{E: sv.opts.E}
	if req.E > 0 {
		so.E = req.E
	}
	key := cacheKey{
		shard: shardID{schema: sn.Name(), gen: sn.Generation()},
		expr:  e.String(),
		e:     so.E,
	}
	if p.reason == reasonTrace {
		// Traced requests always run a fresh search with their own
		// recorder: no cache lookup, no singleflight.
		rec := core.NewTraceRecorder(sn.Schema(), req.TraceLimit)
		so.Tracer = rec
		c, status, err := sv.search(ctx, sn, e, so, rec, key)
		c.planned = p
		return c, status, err
	}
	label := sv.met.schemaLabel(sn.Name())
	_, gs := obs.StartSpan(ctx, "cache")
	sv.mu.Lock()
	res, ok := sv.cache.get(key)
	sv.mu.Unlock()
	gs.SetAttr("hit", ok)
	gs.End()
	if ok {
		sv.met.cacheHits.Inc()
		sv.met.schemaCacheHits.With(label).Inc()
		return completed{planned: p, res: res, expr: e, cached: true}, http.StatusOK, nil
	}
	// Only a real failed lookup counts as a miss (traced requests
	// never look the cache up at all).
	sv.met.cacheMisses.Inc()
	sv.met.schemaCacheMisses.With(label).Inc()

	// Collapse a stampede of identical cold requests into one search.
	// The key carries the snapshot generation, so a query admitted
	// after a reload can never share a pre-reload leader's answer.
	sfCtx, sf := obs.StartSpan(ctx, "singleflight")
	c, status, err, shared := sv.flights.do(ctx, key, func() (completed, int, error) {
		return sv.search(sfCtx, sn, e, so, nil, key)
	})
	sf.SetAttr("shared", shared)
	sf.End()
	if shared {
		if err != nil && status == 0 {
			// Our own context ended while waiting on the leader.
			return completed{}, http.StatusServiceUnavailable,
				errors.New("request ended while awaiting an identical in-flight query")
		}
		sv.met.singleflightShared.Inc()
		c.shared = true
	}
	c.planned = p
	return c, status, err
}

// search runs one completion search against the snapshot under ctx,
// folds the outcome into the metrics, and memoizes complete
// (non-aborted) results in the snapshot's cache shard. Partial results
// are never cached: a future request with a bigger budget must get a
// fresh, fuller search.
//
// Every search — default, e-override and traced alike — runs on the
// snapshot's long-lived Completer, with the request's E and tracer
// passed per search: memoized compiled indexes, memoized gap automata
// and pooled engines are shared by all of them.
func (sv *Server) search(ctx context.Context, sn *registry.Snapshot, e pathexpr.Expr, so core.SearchOptions, rec *core.TraceRecorder, key cacheKey) (completed, int, error) {
	start := time.Now()
	sctx, span := obs.StartSpan(ctx, "search")
	// A head-sampled trace pays for per-event counts: bridge the kernel's
	// Tracer hooks into the span via a CountingTracer. Unsampled (tail-
	// rule-only) and untraced requests keep the tracer nil, so the
	// kernel's nil-fast-path overhead pin holds on the default path.
	var ct *core.CountingTracer
	if span.Sampled() && rec == nil {
		ct = &core.CountingTracer{}
		so.Tracer = ct
	}
	res, err := sn.Completer().CompleteWith(sctx, e, so)
	if err != nil {
		span.SetError(err.Error())
		span.End()
		return completed{}, http.StatusUnprocessableEntity, err
	}
	elapsed := time.Since(start)
	span.SetAttr("calls", res.Stats.Calls)
	span.SetAttr("offers", res.Stats.Offers)
	span.SetAttr("pruned", res.Stats.PrunedBestT+res.Stats.PrunedBestU)
	if ct != nil {
		span.SetAttr("events.enter", ct.Enters)
		span.SetAttr("events.prune", ct.Prunes)
		span.SetAttr("events.offer", ct.Offers)
		span.SetAttr("events.preempt", ct.Preempts)
	}
	span.End()
	// Exemplar only for head-sampled traces: sampling guarantees
	// retention, so the /metrics annotation always resolves on
	// /v1/traces/{id}.
	exID := ""
	if span.Sampled() {
		exID = span.TraceID()
	}
	sv.met.observeSearch(res, elapsed, exID)
	sv.met.schemaSearches.With(sv.met.schemaLabel(sn.Name())).Inc()
	switch res.StopReason {
	case core.StopDeadline:
		sv.met.timeouts.Inc()
	case core.StopCanceled:
		sv.met.canceled.Inc()
	}
	if !res.Aborted {
		sv.mu.Lock()
		evicted := sv.cache.put(key, res)
		size, bytes := sv.cache.len(), sv.cache.bytes()
		sv.mu.Unlock()
		if evicted > 0 {
			sv.met.cacheEvictions.Add(uint64(evicted))
		}
		sv.met.cacheSize.Set(int64(size))
		sv.met.cacheBytes.Set(bytes)
	}
	return completed{res: res, expr: e, rec: rec}, http.StatusOK, nil
}

// serveAdmitted is the one prologue of the search routes: it pins the
// request's snapshot, bounds the context by the effective timeout and
// takes an admission slot, answering each failure itself (404, 429 +
// Retry-After, 503), then runs the route under all three.
func (sv *Server) serveAdmitted(w http.ResponseWriter, r *http.Request, timeoutMs int, run func(ctx context.Context, sn *registry.Snapshot)) {
	sn, ok := sv.acquireSnapshot(w, r)
	if !ok {
		return
	}
	defer sn.Release()
	ctx := r.Context()
	if d := sv.effectiveTimeout(timeoutMs); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	_, span := obs.StartSpan(ctx, "admit")
	outcome := sv.admit(ctx)
	if outcome != admitOK {
		span.SetError("not admitted")
	}
	span.End()
	switch outcome {
	case admitShed:
		w.Header().Set("Retry-After", "1")
		if isV1(r) {
			sv.jsonError(w, r, http.StatusTooManyRequests, errShed.Error())
			return
		}
		sv.writeJSON(w, r, http.StatusTooManyRequests, map[string]any{
			"error":             errShed.Error(),
			"retryAfterSeconds": 1,
		})
		return
	case admitCanceled:
		sv.jsonError(w, r, http.StatusServiceUnavailable,
			"request ended while waiting for an admission slot")
		return
	}
	defer sv.release()
	run(ctx, sn)
}

// completeResponse renders one completed search as the response body.
func (sv *Server) completeResponse(sn *registry.Snapshot, c completed) CompleteResponse {
	res := c.res
	out := CompleteResponse{
		Expr:       c.expr.String(),
		Schema:     sn.Name(),
		Generation: sn.Generation(),
		Calls:      res.Stats.Calls,
		Truncated:  res.Truncated,
		Exhausted:  res.Exhausted,
		Cached:     c.cached,
		Shared:     c.shared,
		Engine:     c.engine,
		Aborted:    res.Aborted,
		StopReason: string(res.StopReason),
	}
	if !c.cached {
		out.Stats = &SearchStatsJSON{
			Calls:        res.Stats.Calls,
			Offers:       res.Stats.Offers,
			PrunedBestT:  res.Stats.PrunedBestT,
			PrunedBestU:  res.Stats.PrunedBestU,
			CautionSaves: res.Stats.CautionSaves,
		}
	}
	if c.rec != nil {
		out.Trace = c.rec.Events
		if out.Trace == nil {
			out.Trace = []core.TraceEvent{}
		}
		out.TraceDropped = c.rec.Dropped
	}
	for _, cc := range res.Completions {
		out.Completions = append(out.Completions, CompletionJSON{
			Path:   cc.Path.String(),
			Conn:   cc.Label.Conn().String(),
			SemLen: cc.Label.SemLen(),
		})
	}
	return out
}

func (sv *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		sv.jsonError(w, r, decodeStatus(err), "bad request: "+err.Error())
		return
	}
	serveQuery(sv, w, r, req, (*Server).completeResponse)
}

// serveQuery answers one completion query — /v1/complete and
// /v1/explain alike — through the search prologue and complete, and
// renders the answer's data payload with render.
func serveQuery[T any](sv *Server, w http.ResponseWriter, r *http.Request, req CompleteRequest, render func(*Server, *registry.Snapshot, completed) T) {
	if err := sv.validateComplete(&req); err != nil {
		sv.jsonError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	sv.serveAdmitted(w, r, req.TimeoutMs, func(ctx context.Context, sn *registry.Snapshot) {
		c, status, err := sv.complete(ctx, sn, req)
		root := obs.SpanFromContext(r.Context())
		if err != nil {
			root.SetError(err.Error())
			sv.jsonError(w, r, status, err.Error())
			return
		}
		setPlanAttrs(root, c.planned)
		sv.respond(w, r, http.StatusOK, render(sv, sn, c), completeMeta(sn, c))
	})
}

// BatchRequest is the body of POST /completeBatch: a set of completion
// queries answered against ONE schema snapshot — every element sees
// the same generation even if a reload lands mid-batch.
type BatchRequest struct {
	// Queries lists the completion queries (each validated like a
	// /complete body; Approve is ignored). Bounded by Limits.MaxBatch.
	Queries []CompleteRequest `json:"queries"`
	// TimeoutMs bounds the whole batch's wall clock (capped by the
	// server's MaxTimeout); per-query timeoutMs tightens individual
	// members within it.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// BatchItem is one positional result of a /completeBatch response:
// exactly one of Error or the embedded response is meaningful.
type BatchItem struct {
	CompleteResponse
	Error string `json:"error,omitempty"`
}

// BatchResponse is the body of a /completeBatch response. Results are
// positional with the request's queries.
type BatchResponse struct {
	Schema     string      `json:"schema"`
	Generation uint64      `json:"generation"`
	Results    []BatchItem `json:"results"`
}

func (sv *Server) handleCompleteBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		sv.jsonError(w, r, decodeStatus(err), "bad request: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		sv.jsonError(w, r, http.StatusBadRequest, "empty batch: missing queries")
		return
	}
	if len(req.Queries) > sv.lim.MaxBatch {
		sv.jsonError(w, r, http.StatusBadRequest, fmt.Sprintf(
			"batch too large: %d queries exceed the %d-query limit",
			len(req.Queries), sv.lim.MaxBatch))
		return
	}
	if req.TimeoutMs < 0 {
		sv.jsonError(w, r, http.StatusBadRequest, "timeoutMs must be non-negative")
		return
	}
	// One admission slot covers the whole batch: a batch is one unit of
	// client work, and charging per element would let small batches
	// starve interactive queries.
	sv.serveAdmitted(w, r, req.TimeoutMs, func(ctx context.Context, sn *registry.Snapshot) {
		out := BatchResponse{
			Schema:     sn.Name(),
			Generation: sn.Generation(),
			Results:    make([]BatchItem, len(req.Queries)),
		}
		workers := batchWorkers
		if workers > len(req.Queries) {
			workers = len(req.Queries)
		}
		bctx, bspan := obs.StartSpan(ctx, "fanout")
		bspan.SetAttr("queries", len(req.Queries))
		bspan.SetAttr("workers", workers)
		var wg sync.WaitGroup
		next := make(chan int)
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					out.Results[i] = sv.batchOne(bctx, sn, req.Queries[i])
				}
			}()
		}
		for i := range req.Queries {
			next <- i
		}
		close(next)
		wg.Wait()
		bspan.End()
		sv.respond(w, r, http.StatusOK, out, &Meta{Schema: sn.Name(), Generation: sn.Generation()})
	})
}

// batchWorkers bounds the per-batch search concurrency. The admission
// gate already bounds batches themselves, so this is a fairness knob
// (one huge batch should not monopolize every core), not a safety one.
const batchWorkers = 4

// batchOne answers one batch element through the same path as a
// /complete request (validation, cache, singleflight), converting
// failures into positional errors rather than failing the batch.
func (sv *Server) batchOne(ctx context.Context, sn *registry.Snapshot, q CompleteRequest) BatchItem {
	if err := sv.validateComplete(&q); err != nil {
		return BatchItem{Error: err.Error()}
	}
	// One span per batch element, owned by the worker goroutine running
	// it (distinct spans of one trace may run concurrently).
	ctx, span := obs.StartSpan(ctx, "batch.item")
	defer span.End()
	qctx := ctx
	if q.TimeoutMs > 0 {
		if d := sv.effectiveTimeout(q.TimeoutMs); d > 0 {
			var cancel context.CancelFunc
			qctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
	}
	c, _, err := sv.complete(qctx, sn, q)
	if err != nil {
		span.SetError(err.Error())
		return BatchItem{Error: err.Error()}
	}
	setPlanAttrs(span, c.planned)
	return BatchItem{CompleteResponse: sv.completeResponse(sn, c)}
}

// EvaluateResponse is the body of a /evaluate response.
type EvaluateResponse struct {
	Expr   string   `json:"expr"`
	Schema string   `json:"schema,omitempty"`
	Where  string   `json:"where,omitempty"`
	Chosen []string `json:"chosen"`
	Values []any    `json:"values"`
}

func (sv *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		sv.jsonError(w, r, decodeStatus(err), "bad request: "+err.Error())
		return
	}
	if err := sv.validateComplete(&req); err != nil {
		sv.jsonError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	sv.serveAdmitted(w, r, req.TimeoutMs, func(ctx context.Context, sn *registry.Snapshot) {
		if sn.Store() == nil {
			sv.jsonError(w, r, http.StatusNotFound, "no object store mounted for schema "+sn.Name())
			return
		}
		if err := faultinject.Inject("server.evaluate"); err != nil {
			sv.jsonError(w, r, http.StatusInternalServerError, err.Error())
			return
		}
		// The evaluation path runs through the Fox interpreter (the full
		// Figure 1 loop) on the snapshot's Completer, which also
		// understands selection predicates:
		// {"expr": "department~course where credits > 3"}. The request's
		// Approve indices stand in for the user; ctx carries the
		// per-request deadline into the disambiguation search.
		chooser := fox.AcceptAll
		if len(req.Approve) > 0 {
			approve := req.Approve
			chooser = func([]core.Completion) []int { return approve }
		}
		if s := obs.SpanFromContext(r.Context()); s != nil {
			s.SetAttr(obs.AttrExpr, req.Expr)
			s.SetAttr(obs.AttrSchema, sn.Name())
			s.SetAttr(obs.AttrEngine, engineSearch)
		}
		_, espan := obs.StartSpan(ctx, "evaluate")
		ans, err := fox.Eval(ctx, sn.Store(), sn.Completer(), core.SearchOptions{E: req.E}, chooser, req.Expr)
		espan.End()
		if err != nil {
			sv.jsonError(w, r, http.StatusUnprocessableEntity, err.Error())
			return
		}
		out := EvaluateResponse{Expr: ans.Query.String(), Schema: sn.Name(), Values: ans.Values}
		if out.Values == nil {
			out.Values = []any{}
		}
		for _, c := range ans.Chosen {
			out.Chosen = append(out.Chosen, c.Path.String())
		}
		if ans.Where != nil {
			out.Where = ans.Where.String()
		}
		sv.respond(w, r, http.StatusOK, out,
			&Meta{Schema: sn.Name(), Generation: sn.Generation(), Engine: engineSearch})
	})
}

// exprShape renders an expression with every identifier replaced by
// "_" — "ta~name" becomes "_~_" — the name-free pattern shape the
// slow-query log reports, so slow entries group by structure (gap
// count, connectors, annotations) rather than by specific class names.
// Gap regex constraints render as ~(_)~ and pushed-down predicates as
// a trailing [_]: "ta~(grad.*)~name[self = \"x\"]" becomes "_~(_)~_[_]".
func exprShape(e pathexpr.Expr) string {
	var sb strings.Builder
	sb.WriteByte('_')
	for _, st := range e.Steps {
		switch {
		case st.Gap && st.Constraint != "":
			sb.WriteString("~(_)~")
		case st.Gap:
			sb.WriteByte('~')
		default:
			sb.WriteString(st.Conn.String())
		}
		sb.WriteByte('_')
		if st.Pred != "" {
			sb.WriteString("[_]")
		}
	}
	return sb.String()
}

// decodeStatus maps a request-body decode error to its status: 413 for
// a body that blew the MaxBytesReader cap, 400 otherwise.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeJSON writes v as the response body. Encode failures (a type
// that cannot marshal, or a client that went away mid-write) are not
// silently dropped: they are counted and logged with the request ID.
func (sv *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		sv.met.encodeFailures.Inc()
		if sv.logger != nil {
			sv.logger.LogAttrs(r.Context(), slog.LevelError, "response encode failed",
				slog.String("id", w.Header().Get(obs.RequestIDHeader)),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.String("error", err.Error()),
			)
		}
	}
}

// jsonError writes a machine-readable error body with the given
// status: the legacy {"error": msg} shape on pre-/v1 routes, the v1
// envelope ({"data": null, "error": {"code", "message"}, "meta"}) on
// the versioned surface. Every error the hardened path produces —
// including 429 sheds and recovered panics — is valid JSON on both.
func (sv *Server) jsonError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	if isV1(r) {
		sv.writeJSON(w, r, status, Envelope{
			Error: &APIError{Code: errCode(status), Message: msg},
			Meta: &Meta{
				ApiVersion: APIVersion,
				TraceID:    obs.SpanFromContext(r.Context()).TraceID(),
				DurationMs: float64(sinceStart(r)) / float64(time.Millisecond),
			},
		})
		return
	}
	sv.writeJSON(w, r, status, map[string]any{"error": msg})
}
