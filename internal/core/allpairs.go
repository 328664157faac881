package core

// This file implements the all-pairs side of the path-algebra
// formulation. Carré's framework admits two classical computation
// shapes for an optimal-path problem: the single-source search
// (Algorithm 2, what Complete runs per query) and the all-pairs
// closure, which materializes the optimal answer for every source at
// once. For the disambiguation mechanism the "pairs" are
// (source class, gap anchor): the dominant query shape is the
// single-gap expression `root ~ anchor`, and for a fixed anchor the
// compiled transition index is root-independent, so one index and one
// pooled engine (with its dirty-list bestTab reset) serve the whole
// source sweep.
//
// The solver deliberately does NOT re-derive answers through a
// different algorithm: every (root, anchor) cell is produced by the
// exact same dispatch the serving path uses (searchCompiled — the
// compiled sequential kernel, or the parallel root-branch search when
// the options elect it), so a materialized cell is bit-for-bit the
// Result an online query would have computed, caution sets and the
// Inheritance Semantics Criterion included. The differential suite in
// internal/closure locks that equality over the oracle corpus.

import (
	"context"
	"fmt"
	"sort"

	"pathcomplete/internal/schema"
)

// GapAnchors returns every name that is a valid single-gap anchor of
// the schema — the names `x` for which some `root ~ x` query compiles:
// the distinct relationship names plus the non-primitive class names
// (a gap anchored on a class name also ends at any edge into that
// class; see compile). Sorted, deduplicated. This is the column
// universe of the all-pairs closure.
func GapAnchors(s *schema.Schema) []string {
	set := make(map[string]bool)
	for _, rel := range s.Rels() {
		set[rel.Name] = true
	}
	for _, c := range s.Classes() {
		if !c.Primitive {
			set[c.Name] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// gapSegment compiles one ~anchor step against the schema — the same
// derivation compile performs for a Step{Gap: true}.
func gapSegment(s *schema.Schema, anchor string) (segment, error) {
	seg := segment{kind: segGapName, name: anchor, class: schema.NoClass}
	if cls, ok := s.ClassByName(anchor); ok {
		seg.class = cls.ID
	}
	if seg.class == schema.NoClass && len(s.RelsNamed(anchor)) == 0 {
		return segment{}, fmt.Errorf("core: no relationship or class named %q anywhere in schema %s",
			anchor, s.Name())
	}
	return seg, nil
}

// AllPairsGap computes the single-gap completion `root ~ anchor` from
// every non-primitive root class, invoking fn once per root in
// ascending class order. One compiled transition index is built for
// the anchor and shared across the whole sweep (the rows are
// root-independent), and each cell runs through the same kernel
// dispatch as an online query, so fn receives exactly the Result
// Complete would have returned for that (root, anchor).
//
// The sweep is cancellable: when ctx is done, AllPairsGap stops and
// returns the context's error without invoking fn for a partial cell.
// Roots from which the anchor is unreachable still produce a cell (an
// empty Result) — "no consistent completion" is itself the materialized
// answer.
func (c *Completer) AllPairsGap(ctx context.Context, anchor string, fn func(root schema.ClassID, res *Result)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	seg, err := gapSegment(c.s, anchor)
	if err != nil {
		return err
	}
	segs := []segment{seg}
	var cp *compiled
	if !c.opts.noCompile {
		// Root 0 is a placeholder: newCompiled derives rows for every
		// class regardless of the pattern's root.
		cp = newCompiled(c.s, &pattern{segs: segs}, c.opts)
	}
	for v := 0; v < c.s.NumClasses(); v++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cls := c.s.Class(schema.ClassID(v))
		if cls.Primitive {
			continue
		}
		pat := &pattern{root: cls.ID, segs: segs}
		var res *Result
		if cp == nil {
			res = newEngine(ctx, c.s, pat, c.opts).run()
		} else {
			res = c.searchCompiled(ctx, pat, cp, c.opts)
		}
		if res.Aborted {
			// The context tripped mid-search (AllPairsGap itself sets no
			// other bound): the cell is partial, so it must not be
			// materialized. Surface the cancellation.
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("core: all-pairs sweep aborted at %s~%s: %s", cls.Name, anchor, res.StopReason)
		}
		fn(cls.ID, res)
	}
	return nil
}
