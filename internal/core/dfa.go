package core

// This file memoizes the determinized gap-constraint automata of one
// Completer. A Machine is a function of the constraint source and the
// schema's edge alphabet only, and the alphabet is fixed for the
// Completer's life, so a source determinizes to the same Machine on
// every request. Compile + Determinize is ~98% of a constrained query
// on the serving path; with the memo a repeated source costs one map
// probe. The naive reference (compile with a nil memo) keeps
// determinizing afresh, so the differential lanes still compare two
// independent compilations.

import (
	"sync"

	"pathcomplete/internal/gapre"
	"pathcomplete/internal/schema"
)

// maxDFABytes caps the table bytes one Completer's DFA memo retains.
// Past the cap a new source is still compiled and served, just not
// retained, so a stream of distinct sources cannot grow memory. Real
// constraint sets are a handful of operator-written regexes of a few
// KiB each.
const maxDFABytes = 1 << 20

// dfaEntryOverhead approximates the fixed per-entry cost (map slot,
// entry struct, Machine header) charged against maxDFABytes on top of
// the tables and the source text.
const dfaEntryOverhead = 128

// gapDFA is one compiled gap constraint: its automaton, or universal
// when the automaton accepts every non-empty fragment (the constraint
// prunes nothing and is dropped from the pattern), or the error that
// rejected the source.
type gapDFA struct {
	m         *gapre.Machine
	universal bool
	err       error
}

// size is the entry's charge against maxDFABytes.
func (d *gapDFA) size(src string) int {
	n := dfaEntryOverhead + len(src)
	if d.m != nil {
		n += d.m.Bytes()
	}
	if d.err != nil {
		n += len(d.err.Error())
	}
	return n
}

// compileGapDFA compiles src and determinizes it over the schema's
// edge vocabulary: first[rel] is an edge's gap-spelling token as a
// gap's first edge, rest[rel] in any later position.
func compileGapDFA(s *schema.Schema, src string) *gapDFA {
	rx, err := gapre.Compile(src)
	if err != nil {
		return &gapDFA{err: err}
	}
	rels := s.Rels()
	first := make([]string, len(rels))
	rest := make([]string, len(rels))
	for _, rel := range rels {
		first[rel.ID] = rel.Name
		rest[rel.ID] = rel.Conn.String() + rel.Name
	}
	m, err := gapre.Determinize(rx, first, rest)
	if err != nil {
		return &gapDFA{err: err}
	}
	if m.Universal() {
		return &gapDFA{universal: true}
	}
	return &gapDFA{m: m}
}

// dfaMemo memoizes gapDFAs by constraint source, rejected sources
// included (their error is the one the first compile produced). The
// zero value is ready to use; a nil *dfaMemo compiles every source
// afresh.
type dfaMemo struct {
	mu    sync.RWMutex
	byKey map[string]*gapDFA
	bytes int
}

// get returns the compiled constraint for src over s. Safe for
// concurrent use: concurrent first uses of one source may each
// compile, but all of them return the one retained entry.
func (m *dfaMemo) get(s *schema.Schema, src string) *gapDFA {
	if m == nil {
		return compileGapDFA(s, src)
	}
	m.mu.RLock()
	d := m.byKey[src]
	m.mu.RUnlock()
	if d != nil {
		return d
	}
	d = compileGapDFA(s, src)
	m.mu.Lock()
	defer m.mu.Unlock()
	if old := m.byKey[src]; old != nil {
		return old
	}
	if n := d.size(src); m.bytes+n <= maxDFABytes {
		if m.byKey == nil {
			m.byKey = make(map[string]*gapDFA)
		}
		m.byKey[src] = d
		m.bytes += n
	}
	return d
}

// drop releases every memoized automaton (see Completer.Close).
func (m *dfaMemo) drop() {
	m.mu.Lock()
	m.byKey = nil
	m.bytes = 0
	m.mu.Unlock()
}
