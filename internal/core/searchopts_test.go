package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/uni"
)

// TestCompleteWithMatchesFreshCompleter pins the contract that lets a
// server drop its throwaway Completers: a per-search E or Tracer
// override on a long-lived, already-warm Completer answers exactly as
// a fresh New(schema, opts) with the override baked in — completions,
// best set, stats (where they are deterministic) and, with a tracer,
// the recorded events — under every pruning mode, sequential and
// parallel.
func TestCompleteWithMatchesFreshCompleter(t *testing.T) {
	s := uni.New()
	exprs := []string{
		"ta~name",
		"student~name",
		"department~course",
		"ta~(grad.*)~name",
		`ta~name[self != "zz"]`,
		"ta~student~name",
	}
	modes := map[string]Options{"paper": Paper(), "safe": Safe(), "exact": Exact()}
	for mname, base := range modes {
		for _, par := range []int{0, 2} {
			opts := base
			opts.Parallel = par
			long := New(s, opts)
			for _, src := range exprs {
				e := pathexpr.MustParse(src)
				if _, err := long.Complete(e); err != nil { // warm memo and pool at the default E
					t.Fatal(err)
				}
				for _, eo := range []int{2, 3} {
					for _, traced := range []bool{false, true} {
						name := fmt.Sprintf("%s/par%d/%s/e%d/trace=%v", mname, par, src, eo, traced)
						fo := opts
						fo.E = eo
						so := SearchOptions{E: eo}
						var recFresh, recLong *TraceRecorder
						if traced {
							recFresh, recLong = NewTraceRecorder(s, -1), NewTraceRecorder(s, -1)
							fo.Tracer, so.Tracer = recFresh, recLong
						}
						want, err := New(s, fo).Complete(e)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got, err := long.CompleteWith(context.Background(), e, so)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						// Exact-mode parallel workers exchange bounds mid-flight,
						// so their effort counts depend on timing; the answer
						// does not.
						timed := opts.DisableBestU && par >= 2
						if !reflect.DeepEqual(got.Strings(), want.Strings()) ||
							!reflect.DeepEqual(got.Best, want.Best) || (!timed && got.Stats != want.Stats) {
							t.Errorf("%s: CompleteWith = %v %v %+v, fresh Completer = %v %v %+v",
								name, got.Strings(), got.Best, got.Stats, want.Strings(), want.Best, want.Stats)
						}
						if traced && !reflect.DeepEqual(recLong.Events, recFresh.Events) {
							t.Errorf("%s: %d traced events, fresh Completer %d", name, len(recLong.Events), len(recFresh.Events))
						}
					}
				}
				// The override is per search: the Completer's own E still answers.
				again, err := long.Complete(e)
				if err != nil {
					t.Fatal(err)
				}
				fresh, _ := New(s, opts).Complete(e)
				if !reflect.DeepEqual(again.Strings(), fresh.Strings()) {
					t.Errorf("%s/par%d/%s: override leaked into the default search: %v vs %v",
						mname, par, src, again.Strings(), fresh.Strings())
				}
			}
		}
	}
}

// TestCompleteWithConcurrent runs default, e-override and traced
// searches on one Completer at once (run it under -race): pooled
// engines pass between searches with different E and tracers, and no
// search may see another's options.
func TestCompleteWithConcurrent(t *testing.T) {
	s := uni.New()
	cmp := New(s, Safe())
	exprs := []pathexpr.Expr{pathexpr.MustParse("ta~name"), pathexpr.MustParse("ta~(grad.*|instructor.*)~name")}
	want := map[string][]string{}
	for _, e := range exprs {
		for eo := 1; eo <= 3; eo++ {
			o := Safe()
			o.E = eo
			res, err := New(s, o).Complete(e)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(e, eo)] = res.Strings()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				e, eo := exprs[(g+i)%len(exprs)], 1+(g+i)%3
				so := SearchOptions{E: eo}
				if g%2 == 1 {
					so.Tracer = &CountingTracer{}
				}
				got, err := cmp.CompleteWith(context.Background(), e, so)
				if err != nil {
					t.Error(err)
					return
				}
				if w := want[fmt.Sprint(e, eo)]; !reflect.DeepEqual(got.Strings(), w) {
					t.Errorf("%v at E=%d: got %v, want %v", e, eo, got.Strings(), w)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
