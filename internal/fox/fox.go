// Package fox implements a miniature Fox-style query front end: the
// query flow of Figure 1 of Ioannidis & Lashkari (SIGMOD 1994). A
// query is a path expression, optionally followed by a selection
// predicate ("department ~ course where credits > 3"); it is parsed,
// any ~ connectors are disambiguated by the path expression completion
// module, the user (a Chooser) approves a subset of the candidates,
// and the approved expressions are evaluated against the object store
// with the predicate filtering the result.
package fox

import (
	"context"
	"fmt"
	"sort"

	"pathcomplete/internal/core"
	"pathcomplete/internal/objstore"
	"pathcomplete/internal/pathexpr"
)

// Chooser stands in for the user in the completion loop of Figure 1:
// given the candidate completions, it returns the indices of the
// approved ones. Out-of-range indices are ignored.
type Chooser func(candidates []core.Completion) []int

// AcceptAll approves every candidate.
func AcceptAll(cands []core.Completion) []int {
	out := make([]int, len(cands))
	for i := range cands {
		out[i] = i
	}
	return out
}

// AcceptFirst approves only the first (best-ranked) candidate.
func AcceptFirst(cands []core.Completion) []int {
	if len(cands) == 0 {
		return nil
	}
	return []int{0}
}

// Answer is the result of one query round trip.
type Answer struct {
	// Query is the parsed input expression.
	Query pathexpr.Expr
	// Where is the parsed selection predicate, if the query had one.
	Where *Predicate
	// Candidates are the completions the system proposed (for a
	// complete input, the input itself).
	Candidates []core.Completion
	// Chosen are the approved completions that were evaluated.
	Chosen []core.Completion
	// Objects is the union of the evaluation results of the chosen
	// expressions, in ascending OID order.
	Objects []objstore.OID
	// Values renders Objects (primitive values, or class#oid
	// placeholders).
	Values []any
	// Stats reports the completion traversal effort.
	Stats core.Stats
}

// Interp executes queries against one store. It is safe for concurrent
// use if the store is not mutated concurrently.
type Interp struct {
	store     *objstore.Store
	completer *core.Completer
	chooser   Chooser
}

// New returns an interpreter over the store that disambiguates with the
// completer (over the store's schema) and resolves ambiguity with the
// chooser (AcceptAll if nil).
func New(store *objstore.Store, c *core.Completer, chooser Chooser) *Interp {
	return &Interp{store: store, completer: c, chooser: chooser}
}

// Query runs the full Figure 1 loop on one query: a path expression
// optionally followed by a where clause (see predicate.go).
func (in *Interp) Query(src string) (*Answer, error) {
	return Eval(context.Background(), in.store, in.completer, core.SearchOptions{}, in.chooser, src)
}

// Eval runs the Figure 1 loop on one query against store: c
// disambiguates it through CompleteWith under ctx (whose deadline or
// cancellation stops the search gracefully) with the per-search
// overrides so, choose approves candidates (AcceptAll if nil), and the
// approved expressions are evaluated.
func Eval(ctx context.Context, store *objstore.Store, c *core.Completer, so core.SearchOptions, choose Chooser, src string) (*Answer, error) {
	exprSrc, pred, err := splitQuery(src)
	if err != nil {
		return nil, err
	}
	e, err := pathexpr.Parse(exprSrc)
	if err != nil {
		return nil, fmt.Errorf("fox: %w", err)
	}
	res, err := c.CompleteWith(ctx, e, so)
	if err != nil {
		return nil, fmt.Errorf("fox: %w", err)
	}
	ans := &Answer{Query: e, Where: pred, Candidates: res.Completions, Stats: res.Stats}
	if len(res.Completions) == 0 {
		return ans, nil
	}
	if choose == nil {
		choose = AcceptAll
	}
	picked := choose(res.Completions)
	seen := make(map[int]bool, len(picked))
	union := make(map[objstore.OID]bool)
	for _, i := range picked {
		if i < 0 || i >= len(res.Completions) || seen[i] {
			continue
		}
		seen[i] = true
		c := res.Completions[i]
		ans.Chosen = append(ans.Chosen, c)
		for _, oid := range store.Eval(c.Path) {
			union[oid] = true
		}
	}
	for oid := range union {
		ans.Objects = append(ans.Objects, oid)
	}
	sort.Slice(ans.Objects, func(i, j int) bool { return ans.Objects[i] < ans.Objects[j] })
	if pred != nil {
		ans.Objects = filterObjects(pred, store, ans.Objects)
	}
	ans.Values = store.Values(ans.Objects)
	return ans, nil
}
