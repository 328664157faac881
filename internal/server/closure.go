package server

// Closure warming: background all-pairs builds for every served
// snapshot, and their lifecycle metrics. Which requests the index
// answers is decided by the planner (plan.go).

import (
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/obs"
)

// EnableClosure switches on background all-pairs warming for every
// snapshot the registry serves, bounded by workers concurrent builds
// and maxBytes resident index bytes (<= 0: unbounded). Build
// lifecycle events feed the server's metrics. Call once at boot,
// before serving traffic; returns the builder for introspection.
func (sv *Server) EnableClosure(workers int, maxBytes int64) *closure.Builder {
	b := closure.NewBuilder(workers, maxBytes, closureObserver{sv: sv})
	sv.reg.EnableClosure(b)
	return b
}

// closureObserver folds build lifecycle events into the metrics.
type closureObserver struct{ sv *Server }

func (o closureObserver) ClosureBuildStarted(string) {}

func (o closureObserver) ClosureBuildFinished(schema, outcome string, elapsed time.Duration, bytes int64) {
	m := o.sv.met
	m.closureBuilds.With(outcome).Inc()
	m.closureBuildSeconds.Observe(elapsed.Seconds())
	if b := o.sv.reg.ClosureBuilder(); b != nil {
		m.closureBytes.Set(b.Budget().Used())
	}
	// Background warm builds have no request context to thread a span
	// through; synthesize a single-span trace subject to the same
	// sampling and slow/error tail rules as a live request.
	errMsg := ""
	if outcome == "error" {
		errMsg = "closure build failed"
	}
	o.sv.traceP.RecordSynthetic("closure.build", time.Now().Add(-elapsed), elapsed,
		map[string]any{obs.AttrSchema: schema, "outcome": outcome, "bytes": bytes}, errMsg)
}
