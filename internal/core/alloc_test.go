//go:build !race

package core

import (
	"testing"

	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/uni"
)

// Allocation regression guards for the warm hot path (pooled engine,
// memoized compiled index, no tracer, background context). The bounds
// are deliberately loose — about 2x the measured steady state — so the
// guard catches a regression back toward the pre-compilation engine
// (hundreds of allocations per op) without flaking on small runtime
// variations. The file is excluded under -race: the race runtime adds
// bookkeeping allocations that are not the engine's.

// warmAllocs reports the steady-state allocations of one Complete call
// on a warmed completer.
func warmAllocs(t *testing.T, cmp *Completer, e pathexpr.Expr) float64 {
	t.Helper()
	for i := 0; i < 3; i++ { // warm the pool and the pattern memo
		if _, err := cmp.Complete(e); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := cmp.Complete(e); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWarmCompleteAllocs(t *testing.T) {
	s := uni.New()
	e := pathexpr.Expr{Root: "ta", Steps: []pathexpr.Step{{Gap: true, Name: "name"}}}
	for _, tc := range []struct {
		name  string
		opts  Options
		bound float64
	}{
		{"paper", Paper(), 120},
		{"safe", Safe(), 120},
		{"exact", Exact(), 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := warmAllocs(t, New(s, tc.opts), e)
			if got > tc.bound {
				t.Errorf("warm Complete allocates %.0f/op, want <= %.0f (pool or index regression?)", got, tc.bound)
			}
			t.Logf("warm Complete: %.0f allocs/op", got)
		})
	}
}

// TestWarmConstrainedAllocs guards the memoized gap automata: once a
// constraint source has been seen, a constrained query skips Compile
// and Determinize entirely. The degenerate .* constraint normalizes to
// the unconstrained pattern, so it must allocate exactly what the
// plain query does; the regex and composed regex+predicate queries
// share the unconstrained bound.
func TestWarmConstrainedAllocs(t *testing.T) {
	s := uni.New()
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"paper", Paper()},
		{"safe", Safe()},
		{"exact", Exact()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmp := New(s, tc.opts)
			base := warmAllocs(t, cmp, pathexpr.MustParse("ta~name"))
			if got := warmAllocs(t, cmp, pathexpr.MustParse("ta~(.*)~name")); got != base {
				t.Errorf("warm ta~(.*)~name allocates %.0f/op, want exactly the unconstrained %.0f", got, base)
			}
			for _, expr := range []string{"ta~(grad.*)~name", `ta~(grad.*)~name[self != "zz"]`} {
				got := warmAllocs(t, cmp, pathexpr.MustParse(expr))
				if got > 120 {
					t.Errorf("warm %s allocates %.0f/op, want <= 120 (DFA memo regression?)", expr, got)
				}
				t.Logf("warm %s: %.0f allocs/op (unconstrained %.0f)", expr, got, base)
			}
		})
	}
}
