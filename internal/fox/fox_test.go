package fox

import (
	"reflect"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/uni"
)

func interp(t *testing.T, chooser Chooser) *Interp {
	t.Helper()
	store := uni.SampleStore()
	return New(store, core.New(store.Schema(), core.Exact()), chooser)
}

// TestIncompleteQueryLoop runs the paper's flagship query end to end:
// "ta ~ name" must propose the two Isa-chain completions, and both
// evaluate to the TA's name.
func TestIncompleteQueryLoop(t *testing.T) {
	in := interp(t, AcceptAll)
	ans, err := in.Query("ta ~ name")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans.Candidates) != 2 {
		t.Fatalf("candidates = %v", ans.Candidates)
	}
	if len(ans.Chosen) != 2 {
		t.Fatalf("chosen = %v", ans.Chosen)
	}
	if !reflect.DeepEqual(ans.Values, []any{"Yezdi"}) {
		t.Errorf("values = %v, want [Yezdi]", ans.Values)
	}
	if ans.Stats.Calls == 0 {
		t.Error("completion stats missing")
	}
}

// TestAcceptFirst approves only the top candidate.
func TestAcceptFirst(t *testing.T) {
	in := interp(t, AcceptFirst)
	ans, err := in.Query("department~course")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans.Chosen) != 1 {
		t.Fatalf("chosen = %v", ans.Chosen)
	}
	if got := ans.Chosen[0].Path.String(); got != "department$>professor@>teacher.teach" {
		t.Errorf("chosen = %q", got)
	}
	// Courses taught by faculty of departments: Databases and Painting.
	if len(ans.Objects) != 2 {
		t.Errorf("objects = %v values = %v", ans.Objects, ans.Values)
	}
}

// TestCompleteQueryPassThrough: complete queries skip the completion
// loop and evaluate directly.
func TestCompleteQueryPassThrough(t *testing.T) {
	in := interp(t, AcceptAll)
	ans, err := in.Query("ta@>instructor@>teacher.teach.name")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans.Candidates) != 1 || ans.Candidates[0].Path.String() != "ta@>instructor@>teacher.teach.name" {
		t.Errorf("candidates = %v", ans.Candidates)
	}
	if !reflect.DeepEqual(ans.Values, []any{"Intro Programming"}) {
		t.Errorf("values = %v", ans.Values)
	}
}

// TestChooserMisbehaviour: out-of-range and duplicate indices are
// ignored.
func TestChooserMisbehaviour(t *testing.T) {
	in := interp(t, func(c []core.Completion) []int { return []int{-1, 0, 0, 99} })
	ans, err := in.Query("ta~name")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans.Chosen) != 1 {
		t.Errorf("chosen = %v", ans.Chosen)
	}
}

// TestNilChooserDefaultsToAcceptAll covers the constructor default.
func TestNilChooserDefaultsToAcceptAll(t *testing.T) {
	in := interp(t, nil)
	ans, err := in.Query("ta~name")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans.Chosen) != 2 {
		t.Errorf("chosen = %v", ans.Chosen)
	}
}

// TestQueryErrors: parse and completion errors surface.
func TestQueryErrors(t *testing.T) {
	in := interp(t, AcceptAll)
	if _, err := in.Query("ta.."); err == nil {
		t.Error("syntax error should surface")
	}
	if _, err := in.Query("nosuch~name"); err == nil {
		t.Error("unknown root should surface")
	}
}

// TestNoCandidates: a well-formed query with no consistent completion
// returns an empty answer, not an error.
func TestNoCandidates(t *testing.T) {
	in := interp(t, AcceptAll)
	// ssn exists but is unreachable from university without cycles? It
	// is reachable; instead use a cyclic-by-construction prefix.
	ans, err := in.Query("student.take.student~ssn")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans.Candidates) != 0 || len(ans.Objects) != 0 {
		t.Errorf("answer = %+v, want empty", ans)
	}
}
