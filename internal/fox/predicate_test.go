package fox

import (
	"reflect"
	"strings"
	"testing"

	"pathcomplete/internal/pred"
)

func TestWhereOnAttributes(t *testing.T) {
	in := interp(t, AcceptAll)
	// Courses of departments with more than 3 credits: only Painting.
	ans, err := in.Query("department~course where credits > 3")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if ans.Where == nil || ans.Where.String() != "credits > 4" && ans.Where.String() != "credits > 3" {
		t.Errorf("where = %v", ans.Where)
	}
	if len(ans.Objects) != 1 {
		t.Fatalf("objects = %v (%v)", ans.Objects, ans.Values)
	}
	names, err := in.store.AttrValues(ans.Objects[0], "name")
	if err != nil {
		t.Fatalf("AttrValues: %v", err)
	}
	if !reflect.DeepEqual(names, []any{"Painting"}) {
		t.Errorf("filtered course = %v", names)
	}
}

func TestWhereOnSelf(t *testing.T) {
	in := interp(t, AcceptAll)
	ans, err := in.Query(`university~ssn where self >= 300`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// The completion reaches professors' ssns (111, 222) via the
	// department chain; only values >= 300 survive — here none, since
	// the TA's 333 is not reachable through that path.
	if len(ans.Values) != 0 {
		t.Errorf("values = %v", ans.Values)
	}
	ans2, err := in.Query(`university~ssn where self < 300`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !reflect.DeepEqual(ans2.Values, []any{int64(111), int64(222)}) {
		t.Errorf("values = %v", ans2.Values)
	}
}

func TestWhereStringEquality(t *testing.T) {
	in := interp(t, AcceptAll)
	ans, err := in.Query(`ta~name where self = "Yezdi"`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !reflect.DeepEqual(ans.Values, []any{"Yezdi"}) {
		t.Errorf("values = %v", ans.Values)
	}
	ans2, err := in.Query(`ta~name where self != "Yezdi"`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans2.Values) != 0 {
		t.Errorf("values = %v", ans2.Values)
	}
}

func TestWhereNonPrimitiveSelfAndUnknownAttr(t *testing.T) {
	in := interp(t, AcceptAll)
	// self on non-primitive results never matches.
	ans, err := in.Query(`department~course where self = "Databases"`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans.Objects) != 0 {
		t.Errorf("objects = %v", ans.Objects)
	}
	// Unknown attributes filter everything out rather than erroring.
	ans2, err := in.Query(`department~course where nosuch = 1`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans2.Objects) != 0 {
		t.Errorf("objects = %v", ans2.Objects)
	}
}

func TestWhereParseErrors(t *testing.T) {
	in := interp(t, AcceptAll)
	for _, src := range []string{
		"ta~name where",
		"ta~name where credits >",
		"ta~name where credits ~ 3",
		"ta~name where credits > banana",
	} {
		if _, err := in.Query(src); err == nil {
			t.Errorf("Query(%q) should error", src)
		}
	}
}

func TestPredicateParsing(t *testing.T) {
	cases := []struct {
		src  string
		want Predicate
	}{
		{`credits >= 3`, Predicate{Attr: "credits", Op: OpGe, Value: int64(3)}},
		{`name = "a b"`, Predicate{Attr: "name", Op: OpEq, Value: "a b"}},
		{`x <> 2.5`, Predicate{Attr: "x", Op: OpNe, Value: 2.5}},
		{`flag == true`, Predicate{Attr: "flag", Op: OpEq, Value: true}},
	}
	for _, tc := range cases {
		got, err := pred.Parse(tc.src)
		if err != nil {
			t.Errorf("pred.Parse(%q): %v", tc.src, err)
			continue
		}
		if *got != tc.want {
			t.Errorf("pred.Parse(%q) = %+v, want %+v", tc.src, *got, tc.want)
		}
	}
}

func TestPredicateString(t *testing.T) {
	p := Predicate{Attr: "name", Op: OpEq, Value: "x"}
	if got := p.String(); got != `name = "x"` {
		t.Errorf("String() = %q", got)
	}
	p2 := Predicate{Attr: "credits", Op: OpLt, Value: int64(4)}
	if got := p2.String(); got != "credits < 4" {
		t.Errorf("String() = %q", got)
	}
}

func TestCompareMismatches(t *testing.T) {
	if pred.Compare("x", OpEq, int64(1)) || pred.Compare(int64(1), OpEq, "x") {
		t.Error("cross-type compare should be false")
	}
	if pred.Compare(true, OpLt, false) {
		t.Error("ordered compare on booleans should be false")
	}
	if !pred.Compare(int64(2), OpEq, 2.0) {
		t.Error("integer/real coercion failed")
	}
	if p := (Predicate{Attr: "a", Op: OpGe, Value: int64(1)}); !strings.Contains(p.String(), ">=") {
		t.Error("operator rendering")
	}
}
