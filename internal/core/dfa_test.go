package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/uni"
)

// constrained builds root~(src)~anchor without going through the
// parser, so any source text reaches the kernel verbatim.
func constrained(root, src, anchor string) pathexpr.Expr {
	return pathexpr.Expr{Root: root, Steps: []pathexpr.Step{{Gap: true, Name: anchor, Constraint: src}}}
}

// TestDFAMemoByteCap streams 1000 distinct constraint sources (about
// 1.3 MB of tables in all) through one Completer. The memo must stop
// retaining at maxDFABytes while
// every answer stays correct: each source is a textual variant of a
// canonical one (the zz alternative never matches a gap spelling), so
// its answer must equal the canonical source's answer on a fresh
// Completer.
func TestDFAMemoByteCap(t *testing.T) {
	s := uni.New()
	var names []string
	seen := map[string]bool{}
	for _, r := range s.Rels() {
		if !seen[r.Name] {
			seen[r.Name] = true
			names = append(names, r.Name)
		}
	}
	variants := []struct{ canon, variant string }{
		{"%s.*", "%s.*|zz%d"},
		{"%s.{0,12}", "(%s|zz%d).{0,12}"},
	}
	cmp := New(s, Exact())
	want := map[string][]string{}
	for i := 0; i < 1000; i++ {
		name := names[i%len(names)]
		v := variants[(i/len(names))%len(variants)]
		canon := fmt.Sprintf(v.canon, name)
		src := fmt.Sprintf(v.variant, name, i)
		for _, root := range []string{"ta", "student"} {
			got, err := cmp.Complete(constrained(root, src, "name"))
			if err != nil {
				t.Fatalf("%s~(%s)~name: %v", root, src, err)
			}
			k := root + "|" + canon
			if _, ok := want[k]; !ok {
				ref, err := New(s, Exact()).Complete(constrained(root, canon, "name"))
				if err != nil {
					t.Fatalf("%s~(%s)~name: %v", root, canon, err)
				}
				want[k] = ref.Strings()
			}
			if !reflect.DeepEqual(got.Strings(), want[k]) {
				t.Fatalf("%s~(%s)~name = %v, want %v (as %s)", root, src, got.Strings(), want[k], canon)
			}
		}
		if _, bytes := cmp.dfas.retained(); bytes > maxDFABytes {
			t.Fatalf("after %d sources the memo retains %d bytes, cap %d", i+1, bytes, maxDFABytes)
		}
	}
	// Retaining fewer than all 1000 is the cap at work: it is the only
	// reason the memo turns a source away.
	entries, bytes := cmp.dfas.retained()
	if entries == 0 || entries >= 1000 {
		t.Fatalf("memo retains %d of 1000 sources, want some but not all", entries)
	}
	t.Logf("retained %d sources, %d bytes (cap %d)", entries, bytes, maxDFABytes)
}

// TestDFAMemoRejectedSource checks that a rejected source answers the
// same error, byte for byte, on first use, on repeat (memoized) use,
// and through the unmemoized naive reference.
func TestDFAMemoRejectedSource(t *testing.T) {
	s := uni.New()
	for _, src := range []string{`\bgrad`, `.*a.{30}`, `grad(`} {
		e := constrained("ta", src, "name")
		cmp := New(s, Paper())
		_, err := cmp.Complete(e)
		if err == nil {
			t.Fatalf("%s: accepted, want a rejection", src)
		}
		first := err.Error()
		for i := 0; i < 3; i++ {
			if _, err := cmp.Complete(e); err == nil || err.Error() != first {
				t.Fatalf("%s: repeat call %d errs %v, want %q", src, i, err, first)
			}
		}
		if _, err := compile(s, e, nil); err == nil || err.Error() != first {
			t.Fatalf("%s: unmemoized compile errs %v, want %q", src, err, first)
		}
		t.Logf("%s: %s", src, first)
	}
}

// TestDFAMemoClose checks that Close empties the memo and that the
// Completer recompiles afterwards to the same answer.
func TestDFAMemoClose(t *testing.T) {
	s := uni.New()
	cmp := New(s, Paper())
	e := pathexpr.MustParse("ta~(grad.*)~name")
	before, err := cmp.Complete(e)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := cmp.dfas.retained(); n != 1 {
		t.Fatalf("memo holds %d sources after one constrained query, want 1", n)
	}
	cmp.Close()
	if n, bytes := cmp.dfas.retained(); n != 0 || bytes != 0 {
		t.Fatalf("memo holds %d sources (%d bytes) after Close, want none", n, bytes)
	}
	after, err := cmp.Complete(e)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Strings(), after.Strings()) {
		t.Fatalf("answer changed across Close: %v vs %v", before.Strings(), after.Strings())
	}
}

// TestDFAMemoConcurrentFirstUse races many first uses of one source
// (run it under -race): every caller must get the same answer and the
// memo must end up with exactly one entry.
func TestDFAMemoConcurrentFirstUse(t *testing.T) {
	s := uni.New()
	cmp := New(s, Safe())
	e := pathexpr.MustParse("ta~(grad.*|instructor.*)~name")
	want, err := New(s, Safe()).Complete(e)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := cmp.Complete(e)
			if err != nil {
				errs <- err.Error()
				return
			}
			if !reflect.DeepEqual(got.Strings(), want.Strings()) {
				errs <- fmt.Sprintf("got %v, want %v", got.Strings(), want.Strings())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if n, _ := cmp.dfas.retained(); n != 1 {
		t.Fatalf("memo holds %d entries after concurrent first use of one source, want 1", n)
	}
}
