// Package gapre compiles the regular-expression constraint of a
// constrained gap (`root ~(RE)~ anchor`) into a deterministic
// automaton over a schema's edge vocabulary.
//
// A gap binds to a fragment of schema edges e1..ek (k >= 1, the last
// edge being the anchor). The fragment's *spelling* is the path
// expression text of the fragment with its leading connector dropped:
// the first edge contributes its relationship name, and every later
// edge contributes its connector symbol followed by its name. The gap
//
//	advisor .person @>student
//
// therefore spells "advisor.person@>student", and the constraint in
// `ta ~(advisor.*)~ name` matches any gap whose first edge is named
// advisor. Connector kinds are matchable by their symbols (escape the
// regex metacharacters: `\$>`, `\.`); class names never appear in the
// spelling — constrain them by the relationship names that reach them.
//
// The package has two deliberately independent implementations of the
// same semantics:
//
//   - Regex/Machine: an NFA simulation over regexp/syntax programs,
//     determinized eagerly into a dense token-indexed table (the form
//     the search kernel products into its compiled CSR traversal);
//   - Ref: the stdlib regexp engine full-matching the spelled-out
//     fragment string (the post-filter the differential oracle uses).
//
// The two are differentially tested against each other; the kernel
// never calls Ref on its hot path.
package gapre

import (
	"fmt"
	"regexp"
	"regexp/syntax"
	"sort"
	"strings"
)

// MaxStates bounds the determinized automaton. Gap constraints are
// operator-written and small; a constraint whose DFA over the schema
// alphabet exceeds this is rejected at compile time rather than
// risking an exponential table.
const MaxStates = 2048

// Regex is a parsed, validated gap constraint ready to be
// determinized against a schema's edge vocabulary.
type Regex struct {
	src  string
	prog *syntax.Prog
}

// Source returns the constraint text as written.
func (rx *Regex) Source() string { return rx.src }

// Compile parses src with Perl syntax and compiles it to an NFA
// program. Word-boundary assertions are rejected: the gap spelling is
// a token string, not prose, and \b over it would pin semantics to
// regexp's notion of word characters mid-token.
func Compile(src string) (*Regex, error) {
	re, err := syntax.Parse(src, syntax.Perl)
	if err != nil {
		return nil, fmt.Errorf("gap constraint %q: %w", src, err)
	}
	if op := findUnsupported(re); op != "" {
		return nil, fmt.Errorf("gap constraint %q: %s is not supported", src, op)
	}
	prog, err := syntax.Compile(re.Simplify())
	if err != nil {
		return nil, fmt.Errorf("gap constraint %q: %w", src, err)
	}
	return &Regex{src: src, prog: prog}, nil
}

// findUnsupported walks the parse tree for assertions the spelling
// semantics cannot honor.
func findUnsupported(re *syntax.Regexp) string {
	switch re.Op {
	case syntax.OpWordBoundary:
		return `\b`
	case syntax.OpNoWordBoundary:
		return `\B`
	}
	for _, sub := range re.Sub {
		if op := findUnsupported(sub); op != "" {
			return op
		}
	}
	return ""
}

// pcSet is a sorted set of program counters: the *pending* threads of
// an NFA state, i.e. the instructions just past each consumed rune
// (or the program start). Empty-width resolution is deferred to the
// moment the set is used, because the applicable flags (begin of
// text, interior, end of text) depend on how the set is used, not on
// how it was produced.
type pcSet []uint32

func (s pcSet) key() string {
	var b strings.Builder
	for _, pc := range s {
		fmt.Fprintf(&b, "%d,", pc)
	}
	return b.String()
}

// resolve expands the pending set through empty-width instructions
// satisfiable under flags, returning the set of rune/match
// instructions live at this position.
func (rx *Regex) resolve(pending pcSet, flags syntax.EmptyOp) pcSet {
	seen := make([]bool, len(rx.prog.Inst))
	var out pcSet
	var follow func(pc uint32)
	follow = func(pc uint32) {
		if seen[pc] {
			return
		}
		seen[pc] = true
		i := &rx.prog.Inst[pc]
		switch i.Op {
		case syntax.InstFail:
		case syntax.InstAlt, syntax.InstAltMatch:
			follow(i.Out)
			follow(i.Arg)
		case syntax.InstCapture, syntax.InstNop:
			follow(i.Out)
		case syntax.InstEmptyWidth:
			if syntax.EmptyOp(i.Arg)&^flags == 0 {
				follow(i.Out)
			}
		default: // InstMatch, InstRune*
			out = append(out, pc)
		}
	}
	for _, pc := range pending {
		follow(pc)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

const (
	beginFlags = syntax.EmptyBeginText | syntax.EmptyBeginLine
	endFlags   = syntax.EmptyEndText | syntax.EmptyEndLine
)

// stepString consumes the runes of s from the pending set, returning
// the new pending set (nil means the automaton died). atBegin marks
// the set as the initial one, whose first rune sits at position 0 of
// the whole input.
func (rx *Regex) stepString(pending pcSet, s string, atBegin bool) pcSet {
	for _, r := range s {
		flags := syntax.EmptyOp(0)
		if atBegin {
			flags = beginFlags
			atBegin = false
		}
		live := rx.resolve(pending, flags)
		var next pcSet
		for _, pc := range live {
			i := &rx.prog.Inst[pc]
			switch i.Op {
			case syntax.InstRune, syntax.InstRune1, syntax.InstRuneAny, syntax.InstRuneAnyNotNL:
				if i.MatchRune(r) {
					next = append(next, i.Out)
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		sort.Slice(next, func(a, b int) bool { return next[a] < next[b] })
		next = dedupPCs(next)
		pending = next
	}
	return pending
}

func dedupPCs(s pcSet) pcSet {
	out := s[:0]
	for i, pc := range s {
		if i == 0 || pc != s[i-1] {
			out = append(out, pc)
		}
	}
	return out
}

// accepting reports whether the pending set, resolved at end of
// input, contains the match instruction.
func (rx *Regex) accepting(pending pcSet) bool {
	for _, pc := range rx.resolve(pending, endFlags) {
		if rx.prog.Inst[pc].Op == syntax.InstMatch {
			return true
		}
	}
	return false
}

// Dead is the Machine transition value meaning "no continuation of
// this gap can ever satisfy the constraint".
const Dead int32 = -1

// Machine is the constraint determinized over a schema's edge
// vocabulary: a dense table indexed by (state, symbol), where symbol
// is a schema relationship ID and the consumed token is that edge's
// contribution to the gap spelling. State 0 is the initial state (no
// edge consumed yet); its outgoing tokens omit the leading connector
// symbol, all other states' tokens include it. The search kernel
// products this table into its traversal: a stay-in-gap move needs a
// live transition, a gap-ending move needs an accepting target.
type Machine struct {
	numSyms int
	next    []int32 // len NumStates*numSyms; Dead when no transition
	accept  []bool  // len NumStates
}

// NumStates returns the number of determinized states.
func (m *Machine) NumStates() int { return len(m.accept) }

// Bytes returns the size of the machine's transition and accept
// tables, the memory a cache retaining the machine holds.
func (m *Machine) Bytes() int { return 4*len(m.next) + len(m.accept) }

// Step returns the state after consuming edge symbol sym in state q,
// or Dead.
func (m *Machine) Step(q int32, sym int) int32 {
	if q == Dead {
		return Dead
	}
	return m.next[int(q)*m.numSyms+sym]
}

// Accepting reports whether ending the gap in state q satisfies the
// constraint. State 0 is never consulted: a gap consumes at least its
// anchor edge.
func (m *Machine) Accepting(q int32) bool { return q != Dead && m.accept[q] }

// Universal reports that the machine accepts every non-empty token
// string over its alphabet: every transition is live and every state
// reachable by at least one edge is accepting. A universal constraint
// (`.*`, `.+`, ...) prunes nothing, and the caller can drop it
// entirely — which is what makes the `.*` degeneracy bit-for-bit
// identical to the unconstrained query.
func (m *Machine) Universal() bool {
	for q := 0; q < m.NumStates(); q++ {
		if q > 0 && !m.accept[q] {
			return false
		}
		for s := 0; s < m.numSyms; s++ {
			if m.next[q*m.numSyms+s] == Dead {
				return false
			}
		}
	}
	return true
}

// Determinize builds the Machine for rx over an edge vocabulary:
// first[sym] is the token an edge contributes as the gap's first
// edge, rest[sym] its token in any later position (connector symbol
// prepended). Only states reachable from the initial state are
// materialized; construction fails if their number exceeds MaxStates.
func Determinize(rx *Regex, first, rest []string) (*Machine, error) {
	if len(first) != len(rest) {
		return nil, fmt.Errorf("gapre: mismatched vocabularies (%d vs %d)", len(first), len(rest))
	}
	numSyms := len(first)
	m := &Machine{numSyms: numSyms}
	start := pcSet{uint32(rx.prog.Start)}

	// State 0 is the initial state; later states are interned by
	// pending-set key. A later state whose set happens to equal the
	// initial one still gets its own ID: its tokens spell the
	// connector prefix, the initial state's do not.
	states := []pcSet{start}
	ids := map[string]int32{}
	m.next = append(m.next, make([]int32, numSyms)...)
	m.accept = append(m.accept, rx.accepting(start))

	for q := 0; q < len(states); q++ {
		pending := states[q]
		toks := rest
		if q == 0 {
			toks = first
		}
		for sym := 0; sym < numSyms; sym++ {
			nx := rx.stepString(pending, toks[sym], q == 0)
			if nx == nil {
				m.next[q*numSyms+sym] = Dead
				continue
			}
			key := nx.key()
			id, ok := ids[key]
			if !ok {
				if len(states) >= MaxStates {
					return nil, fmt.Errorf("gap constraint %q: automaton exceeds %d states over this schema", rx.src, MaxStates)
				}
				id = int32(len(states))
				ids[key] = id
				states = append(states, nx)
				m.next = append(m.next, make([]int32, numSyms)...)
				m.accept = append(m.accept, rx.accepting(nx))
			}
			m.next[q*numSyms+sym] = id
		}
	}
	return m, nil
}

// Ref is the independent reference implementation: the stdlib regexp
// engine full-matching a spelled-out gap fragment. The differential
// oracle post-filters naive enumerations through Ref and compares
// against the kernel's Machine-pruned traversal; agreement means two
// unrelated regex engines blessed the same answer set.
type Ref struct {
	re *regexp.Regexp
}

// NewRef compiles src for full-string matching.
func NewRef(src string) (*Ref, error) {
	re, err := regexp.Compile(`\A(?:` + src + `)\z`)
	if err != nil {
		return nil, fmt.Errorf("gap constraint %q: %w", src, err)
	}
	return &Ref{re: re}, nil
}

// Match reports whether the full fragment spelling matches.
func (f *Ref) Match(spelling string) bool { return f.re.MatchString(spelling) }
