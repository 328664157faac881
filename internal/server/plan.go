package server

// The query planner: the one place that decides which engine answers a
// completion query and records why. /v1/complete, every batch item and
// /v1/explain reach it through complete; interactive sessions share
// its closure probe for their frontier cells.
//
// The materialized all-pairs closure answers the dominant query shape —
// a single-gap expression `root ~ anchor` at the server's default E,
// untraced and unbudgeted — with one map probe on an immutable index.
// Every other request is planned onto the search engine (behind the
// memo cache and singleflight, except traced requests, which always
// search afresh with their own recorder). A closure answer is
// bit-for-bit the Result the kernel would have produced
// (internal/closure builds every cell through the serving dispatch),
// so the plan changes latency, never answers.

import (
	"context"

	"pathcomplete/internal/core"
	"pathcomplete/internal/obs"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/registry"
)

// Engine values reported in response meta: which subsystem produced
// the answer.
const (
	engineSearch  = "search"
	engineClosure = "closure"
)

// attrPlan is the span attribute carrying the plan's reason, set next
// to obs.AttrEngine.
const attrPlan = "plan"

// planReason says why the planner chose its engine. It is reported on
// the request span only — never on the wire or in metric labels.
type planReason string

const (
	reasonHit         planReason = "hit"             // the closure holds the cell
	reasonTrace       planReason = "trace"           // fresh search with its own recorder
	reasonBudget      planReason = "budget"          // timeoutMs asks for a bounded fresh search
	reasonEOverride   planReason = "e_override"      // E differs from the index's default
	reasonShape       planReason = "shape"           // not a single `root ~ anchor` gap
	reasonConstrained planReason = "constrained"     // gap regex or pushed-down predicate
	reasonNotReady    planReason = "index_not_ready" // index disabled or still building
	reasonCellMissing planReason = "cell_missing"    // unknown or primitive root, or no such cell
)

// planned is the planner's decision: the engine that answers and why.
type planned struct {
	engine string
	reason planReason
}

// plan decides the engine for one parsed query. On reasonHit it also
// returns the closure's answer. It allocates nothing; the closure span
// it opens covers the shape check and the probe of every request the
// index may answer.
func (sv *Server) plan(ctx context.Context, sn *registry.Snapshot, req *CompleteRequest, e pathexpr.Expr) (planned, *core.Result) {
	switch {
	case req.Trace:
		return planned{engineSearch, reasonTrace}, nil
	case req.TimeoutMs != 0:
		return planned{engineSearch, reasonBudget}, nil
	case req.E > 0 && req.E != sv.opts.E:
		return planned{engineSearch, reasonEOverride}, nil
	}
	_, span := obs.StartSpan(ctx, "closure")
	p, res := planned{engineSearch, reasonShape}, (*core.Result)(nil)
	switch {
	case len(e.Steps) != 1 || !e.Steps[0].Gap:
	case exprConstrained(e):
		p.reason = reasonConstrained
	default:
		p, res = closureCell(sn, e.Root, e.Steps[0].Name)
	}
	span.SetAttr("hit", p.reason == reasonHit)
	span.End()
	return p, res
}

// closureCell is the one probe of a snapshot's all-pairs index, for
// the planner and for sessions' frontier cells alike.
func closureCell(sn *registry.Snapshot, root, anchor string) (planned, *core.Result) {
	ix := sn.Closure().Index()
	if ix == nil {
		return planned{engineSearch, reasonNotReady}, nil
	}
	if rc, ok := sn.Schema().ClassByName(root); ok {
		if res, hit := ix.Lookup(rc.ID, anchor); hit {
			return planned{engineClosure, reasonHit}, res
		}
	}
	return planned{engineSearch, reasonCellMissing}, nil
}

// setPlanAttrs stamps the answering engine and the plan's reason on
// span (the request root, or a batch item's span).
func setPlanAttrs(span *obs.Span, p planned) {
	if span != nil {
		span.SetAttr(obs.AttrEngine, p.engine)
		span.SetAttr(attrPlan, string(p.reason))
	}
}
