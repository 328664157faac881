package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/persist"
	"pathcomplete/internal/registry"
	"pathcomplete/internal/server"
)

// bootConfig is the subset of pathserve's flags the workloads use.
// Everything else stays at pathserve's defaults, except request
// logging, which is off (pathserve -quiet).
type bootConfig struct {
	schemasDir string // -schemas-dir
	closure    bool   // -closure
	dataDir    string // -persist -data-dir (empty: no persistence)
}

// node is one booted server.
type node struct {
	sv  *server.Server
	reg *registry.Registry
	h   http.Handler
	ps  *persist.Store
}

// boot assembles a server the way pathserve's multi-schema mode does
// (cmd/pathserve build and setupPersist: load the directory, apply the
// default limits, open the data dir, enable the closure) and returns
// once it is ready to serve: the default schema installed and, with
// the closure on, its index ready (built or restored from disk).
func boot(cfg bootConfig, tr *tracer) (*node, error) {
	reg := registry.New(core.Paper())
	var err error
	tr.time("registry.LoadDir", -1, 0, func() { err = reg.LoadDir(cfg.schemasDir) })
	if err != nil {
		return nil, err
	}
	sv := server.NewFromRegistry(reg)
	sv.SetCacheCap(server.DefaultCacheCap)
	sv.SetLimits(server.Limits{
		MaxTimeout:    server.DefaultMaxTimeout,
		MaxConcurrent: server.DefaultMaxConcurrent,
		MaxQueue:      server.DefaultMaxQueue,
		MaxBodyBytes:  server.DefaultMaxBodyBytes,
	})
	if err := sv.SetLegacyRoutes(server.LegacyWarn); err != nil {
		return nil, err
	}
	n := &node{sv: sv, reg: reg}
	if cfg.dataDir != "" {
		ps, err := persist.Open(cfg.dataDir)
		if err != nil {
			return nil, err
		}
		reg.EnablePersist(ps)
		sv.AttachPersist()
		n.ps = ps
	}
	if cfg.closure {
		tr.time("closure.EnableClosure", -1, 0, func() { sv.EnableClosure(1, 256<<20) })
	}
	n.h = sv.HandlerWith(server.HandlerConfig{})
	if cfg.closure {
		var st closure.Status
		tr.time("closure.Ready", -1, 0, func() { st = n.closureReady() })
		if st.State != closure.StateReady {
			return nil, fmt.Errorf("closure not ready after boot: %s %s", st.State, st.Reason)
		}
	}
	return n, nil
}

// closureReady waits for the current default snapshot's closure build
// to end and returns its status.
func (n *node) closureReady() closure.Status {
	sn, err := n.reg.Acquire("")
	if err != nil {
		return closure.Status{State: closure.StateDisabled, Reason: err.Error()}
	}
	defer sn.Release()
	<-sn.Closure().Done()
	return sn.ClosureStatus()
}

// index returns the default snapshot's ready closure index, or nil.
func (n *node) index() *closure.Index {
	sn, err := n.reg.Acquire("")
	if err != nil {
		return nil
	}
	defer sn.Release()
	return sn.Closure().Index()
}

// reload is one schema edit: the file is rewritten, the server reloads
// (POST /v1/schemas/reload's entry point), and the call returns once
// the new generation is ready — its closure built when the closure is
// on, installed otherwise.
type reloadResult struct {
	gen     uint64
	at      time.Time     // when ReloadSchemas returned
	call    time.Duration // ReloadSchemas alone
	ready   time.Duration // from the reload call to ready
	reused  float64       // ReusedCells/Cells of the new index (closure on)
	outcome string
}

func (n *node) reload(path, text string, closureOn bool) reloadResult {
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		return reloadResult{outcome: "write: " + err.Error()}
	}
	start := time.Now()
	if err := n.sv.ReloadSchemas(); err != nil {
		return reloadResult{outcome: "reload: " + err.Error()}
	}
	r := reloadResult{at: time.Now(), gen: n.reg.Generation(), outcome: "ready"}
	r.call = r.at.Sub(start)
	if closureOn {
		sn, err := n.reg.Acquire("")
		if err != nil {
			return reloadResult{outcome: "acquire: " + err.Error()}
		}
		<-sn.Closure().Done()
		st := sn.ClosureStatus()
		r.ready = time.Since(start)
		if st.State != closure.StateReady {
			r.outcome = string(st.State) + " " + st.Reason
		}
		r.reused = ratio(float64(st.ReusedCells), float64(st.Cells))
		sn.Release()
	} else {
		r.ready = r.call
	}
	return r
}

// writeSchema places one workload schema file in a fresh directory.
func writeSchema(dir, name, text string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".sdl")
	return path, os.WriteFile(path, []byte(text), 0o644)
}

// respWriter is a reusable in-process http.ResponseWriter.
type respWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{h: http.Header{}} }

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

func (w *respWriter) reset() {
	clear(w.h)
	w.status = 0
	w.buf.Reset()
}
