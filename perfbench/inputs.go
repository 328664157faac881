package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/sdl"
)

// Schema shapes. The generator seed stays at the paper preset's
// (cupid.DefaultConfig) for every workload: closure build time and
// the search tail vary up to 3x between generator seeds at the same
// shape, which would swamp the bounds. The run seed drives everything
// else (hot's query pool aside, see runHot): request streams, keystroke
// tapes and the edit sequence.
func hotConfig() cupid.Config {
	c := cupid.DefaultConfig()
	c.Classes, c.RelPairs = 40, 79
	return c
}

func coldConfig() cupid.Config { return cupid.DefaultConfig() }

func typingConfig() cupid.Config {
	c := cupid.DefaultConfig()
	c.Classes, c.RelPairs = 60, 119
	return c
}

// world is one workload's schema as the benchmark sees it: the SDL
// text the server loads, the benchmark's own parse of it, and the
// name pools queries are drawn from.
type world struct {
	name    string
	cfg     cupid.Config
	sdl     string
	s       *schema.Schema
	roots   []string // non-primitive, non-hub classes
	anchors []string // every valid gap anchor
	attrs   []attr   // attribute names (anchors ending at a primitive)
	mids    []string // class names, the middle anchor of a multi-gap query
	edges   []string // non-attribute relationship names (constraint vocabulary)
	edits   []string // removable "assoc" lines of sdl, in seed order

	mu   sync.Mutex
	long map[int]*core.Completer // see longLived
}

type attr struct {
	name string
	prim string
}

func newWorld(name string, cfg cupid.Config, seed int64) (*world, error) {
	w, err := cupid.Generate(cfg)
	if err != nil {
		return nil, err
	}
	text, err := sdl.WriteString(w.Schema)
	if err != nil {
		return nil, err
	}
	s, err := sdl.ParseString(text)
	if err != nil {
		return nil, err
	}
	wd := &world{name: name, cfg: cfg, sdl: text, s: s, anchors: core.GapAnchors(s)}
	hub := map[string]bool{}
	for _, id := range w.Hubs {
		hub[w.Schema.Class(id).Name] = true
	}
	for _, c := range s.Classes() {
		if !c.Primitive && !hub[c.Name] {
			wd.roots = append(wd.roots, c.Name)
			wd.mids = append(wd.mids, c.Name)
		}
	}
	seenAttr := map[string]bool{}
	seenEdge := map[string]bool{}
	for _, r := range s.Rels() {
		to := s.Class(r.To)
		switch {
		case to.Primitive && !seenAttr[r.Name]:
			seenAttr[r.Name] = true
			wd.attrs = append(wd.attrs, attr{r.Name, to.Name})
		case !to.Primitive && !seenEdge[r.Name]:
			seenEdge[r.Name] = true
			wd.edges = append(wd.edges, r.Name)
		}
	}
	sort.Slice(wd.attrs, func(i, j int) bool { return wd.attrs[i].name < wd.attrs[j].name })
	sort.Strings(wd.edges)
	// An edit removes one association pair and later restores it. The
	// pairs' names are then kept out of the traffic, so every anchor a
	// query or keystroke uses is valid in every generation.
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[0] == "assoc" {
			wd.edits = append(wd.edits, line)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(wd.edits), func(i, j int) { wd.edits[i], wd.edits[j] = wd.edits[j], wd.edits[i] })
	if len(wd.edits) > maxEdits {
		wd.edits = wd.edits[:maxEdits]
	}
	edited := map[string]bool{}
	for _, line := range wd.edits {
		f := strings.Fields(line)
		edited[f[3]], edited[f[4]] = true, true
	}
	keep := func(names []string) []string {
		out := names[:0]
		for _, n := range names {
			if !edited[n] {
				out = append(out, n)
			}
		}
		return out
	}
	wd.anchors = keep(wd.anchors)
	if len(wd.edits) == 0 || len(wd.attrs) == 0 || len(wd.edges) < 4 {
		return nil, fmt.Errorf("schema %s: too small for the workload", name)
	}
	return wd, nil
}

// maxEdits bounds the distinct edge removals a run cycles through.
const maxEdits = 4

// stamp describes the generated schema for the report line.
func (w *world) stamp() map[string]any {
	return map[string]any{
		"name":           w.name,
		"generator_seed": w.cfg.Seed,
		"classes":        w.s.NumUserClasses(),
		"relationships":  w.s.NumRels(),
	}
}

// without returns the SDL text with one line removed.
func (w *world) without(line string) string {
	return strings.Replace(w.sdl, line+"\n", "", 1)
}

// query is one /v1/complete request of a workload.
type query struct {
	expr  string
	e     int    // AGG* override (0: server default)
	class string // single, e_override, regex, predicate, multigap
}

func (q query) key() string { return fmt.Sprintf("%d|%s", q.e, q.expr) }

// body renders the request body.
func (q query) body() []byte {
	if q.e > 0 {
		return []byte(fmt.Sprintf(`{"expr":%q,"e":%d}`, q.expr, q.e))
	}
	return []byte(fmt.Sprintf(`{"expr":%q}`, q.expr))
}

// gen draws queries of each class from a world.
type gen struct {
	w       *world
	rng     *rand.Rand
	sources []string // the small fixed set of gap constraint sources
	lit     int      // predicate literal counter: keeps predicate queries distinct
}

func newGen(w *world, seed int64) *gen {
	// The constraint sources are fixed per schema, not drawn from the
	// seed: their compile cost differs 20x between shapes (a prefix
	// "x.*" against a "contains" ".*x.*y.*"), and the set is meant to
	// repeat across requests whose roots and anchors do not.
	e := w.edges
	return &gen{w: w, rng: rand.New(rand.NewSource(seed)), sources: []string{
		e[0] + ".*",
		e[len(e)/2] + ".*",
		"[^@]*",
		".*" + e[len(e)/3] + ".*",
	}}
}

func (g *gen) root() string { return g.w.roots[g.rng.Intn(len(g.w.roots))] }

// anchor prefers attribute names (the typical "root~name" question),
// and otherwise takes any valid anchor.
func (g *gen) anchor() string {
	if g.rng.Intn(10) < 6 {
		return g.w.attrs[g.rng.Intn(len(g.w.attrs))].name
	}
	return g.w.anchors[g.rng.Intn(len(g.w.anchors))]
}

func (g *gen) make(class string) query {
	switch class {
	case "e_override":
		e := 2
		if g.rng.Intn(3) == 0 {
			e = 3
		}
		return query{expr: g.root() + "~" + g.anchor(), e: e, class: class}
	case "regex":
		src := g.sources[g.rng.Intn(len(g.sources))]
		return query{expr: g.root() + "~(" + src + ")~" + g.anchor(), class: class}
	case "predicate":
		a := g.w.attrs[g.rng.Intn(len(g.w.attrs))]
		g.lit++
		p := fmt.Sprintf(`[self != "v%d"]`, g.lit)
		if a.prim != "C" {
			p = fmt.Sprintf("[self > %d]", g.lit)
		}
		return query{expr: g.root() + "~" + a.name + p, class: class}
	case "multigap":
		return query{expr: g.root() + "~" + g.w.mids[g.rng.Intn(len(g.w.mids))] + "~" + g.anchor(), class: class}
	default:
		return query{expr: g.root() + "~" + g.anchor(), class: "single"}
	}
}

// mix draws a class by weight.
func (g *gen) mix(weights map[string]int) string {
	classes := make([]string, 0, len(weights))
	total := 0
	for c, wt := range weights {
		classes = append(classes, c)
		total += wt
	}
	sort.Strings(classes)
	n := g.rng.Intn(total)
	for _, c := range classes {
		if n < weights[c] {
			return c
		}
		n -= weights[c]
	}
	return classes[len(classes)-1]
}

// distinct draws n pairwise-distinct queries in a seeded order. Each
// class's share of them is fixed by its weight, so every seed's pool
// has the same class mix.
func (g *gen) distinct(n int, weights map[string]int) []query {
	classes := sortedKeys(weights)
	total := 0
	for _, c := range classes {
		total += weights[c]
	}
	seen := map[string]bool{}
	out := make([]query, 0, n)
	for i, c := range classes {
		want := len(out) + n*weights[c]/total
		if i == len(classes)-1 {
			want = n
		}
		for tries := 0; len(out) < want && tries < 100*n; tries++ {
			q := g.make(c)
			if !seen[q.key()] {
				seen[q.key()] = true
				out = append(out, q)
			}
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tape is one typist's keystrokes: each entry is the whole expression
// text after that keystroke. A base is typed once (single-gap "root~",
// or multi-gap "root~mid~"), then its anchor one letter at a time.
func (g *gen) tape(n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		base := g.root() + "~"
		if g.rng.Intn(10) < 3 {
			base += g.w.mids[g.rng.Intn(len(g.w.mids))] + "~"
		}
		a := g.anchor()
		for k := 1; k <= len(a) && len(out) < n; k++ {
			out = append(out, base+a[:k])
		}
	}
	return out
}
