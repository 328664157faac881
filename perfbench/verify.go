package main

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"

	"pathcomplete/internal/core"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/server"
	"pathcomplete/internal/session"
)

// The correctness gate. Every answer the server gives is compared with
// the answer of fresh core.Completers the benchmark builds over its
// own parse of the same SDL, with the same options. Expected answers
// are computed after the timed window and outside setup_s.

// oracle answers queries over one schema generation. Its Completers
// are the benchmark's own, never the server's.
type oracle struct {
	s    *schema.Schema
	mu   sync.Mutex
	cmps map[int]*core.Completer
}

func newOracle(s *schema.Schema) *oracle {
	return &oracle{s: s, cmps: map[int]*core.Completer{}}
}

func (o *oracle) completer(e int) *core.Completer {
	if e <= 0 {
		e = core.Paper().E
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.cmps[e]
	if c == nil {
		opts := core.Paper()
		opts.E = e
		c = core.New(o.s, opts)
		o.cmps[e] = c
	}
	return c
}

// expect returns the expected completions of a /v1/complete query.
func (o *oracle) expect(q query) ([]server.CompletionJSON, error) {
	e, err := pathexpr.Parse(q.expr)
	if err != nil {
		return nil, err
	}
	res, err := o.completer(q.e).CompleteContext(context.Background(), e)
	if err != nil {
		return nil, err
	}
	return completionsOf(res), nil
}

// expectKeystroke returns the one-shot answer a session must give for
// the expression typed so far: a prefix completion when the expression
// ends in a gap, a plain completion otherwise.
func (o *oracle) expectKeystroke(expr string) ([]server.CompletionJSON, error) {
	e, err := pathexpr.Parse(expr)
	if err != nil {
		return nil, err
	}
	c := o.completer(0)
	var res *core.Result
	if len(e.Steps) > 0 && e.Steps[len(e.Steps)-1].Gap {
		res, err = c.CompletePrefixContext(context.Background(), e)
	} else {
		res, err = c.CompleteContext(context.Background(), e)
	}
	if err != nil {
		return nil, err
	}
	return completionsOf(res), nil
}

func completionsOf(res *core.Result) []server.CompletionJSON {
	out := make([]server.CompletionJSON, 0, len(res.Completions))
	for _, c := range res.Completions {
		out = append(out, server.CompletionJSON{
			Path:   c.Path.String(),
			Conn:   c.Label.Conn().String(),
			SemLen: c.Label.SemLen(),
		})
	}
	return out
}

func candidatesJSON(cs []session.Candidate) []server.CompletionJSON {
	out := make([]server.CompletionJSON, 0, len(cs))
	for _, c := range cs {
		out = append(out, server.CompletionJSON{Path: c.Path, Conn: c.Conn, SemLen: c.SemLen})
	}
	return out
}

func sameCompletions(a, b []server.CompletionJSON) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// decodeCompletions parses a completions section cut by
// completionsSection.
func decodeCompletions(sec []byte) ([]server.CompletionJSON, error) {
	var out []server.CompletionJSON
	if err := json.Unmarshal(sec, &out); err != nil {
		return nil, err
	}
	return out, nil
}

var completionsKey = []byte(`"completions":`)

// completionsSection cuts the JSON value of the first "completions"
// member out of a response body without decoding the rest, so the
// closed loop can compare answers cheaply. It returns nil when the
// body has no such member.
func completionsSection(body []byte) []byte {
	i := bytes.Index(body, completionsKey)
	if i < 0 {
		return nil
	}
	rest := body[i+len(completionsKey):]
	j := 0
	for j < len(rest) && (rest[j] == ' ' || rest[j] == '\n' || rest[j] == '\t' || rest[j] == '\r') {
		j++
	}
	if j >= len(rest) {
		return nil
	}
	if rest[j] != '[' {
		// null (no completions)
		k := j
		for k < len(rest) && rest[k] != ',' && rest[k] != '\n' && rest[k] != '}' {
			k++
		}
		return rest[j:k]
	}
	depth, inStr, esc := 0, false, false
	for k := j; k < len(rest); k++ {
		c := rest[k]
		switch {
		case inStr:
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '[':
			depth++
		case c == ']':
			depth--
			if depth == 0 {
				return rest[j : k+1]
			}
		}
	}
	return nil
}

// parallel runs fn(i) for i in [0, n) on two workers (the benchmark's
// client count), returning once all calls are done.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	var next sync.Mutex
	i := 0
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= n {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
}
