package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/registry"
)

// TestDFAMemoRegistryLifecycle checks the memo's lifetime under the
// registry's generation discipline: a reload serves from a new
// snapshot whose Completer starts with an empty memo, and the
// superseded snapshot's memo is dropped when its last reference
// retires it.
func TestDFAMemoRegistryLifecycle(t *testing.T) {
	dir := t.TempDir()
	sdl := "class a\nclass b\nhaspart a b part whole\nattr b name C\n"
	if err := os.WriteFile(filepath.Join(dir, "tiny.sdl"), []byte(sdl), 0o644); err != nil {
		t.Fatal(err)
	}
	r := registry.New(core.Paper())
	if err := r.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	e := pathexpr.MustParse("a~(part.*)~name")

	old, err := r.Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	res, err := old.Completer().Complete(e)
	if err != nil || len(res.Completions) != 1 {
		t.Fatalf("a~(part.*)~name = %v, %v; want one completion", res, err)
	}
	if n := core.DFAMemoRetained(old.Completer()); n != 1 {
		t.Fatalf("old snapshot memo holds %d sources, want 1", n)
	}

	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	cur, err := r.Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	if cur.Generation() == old.Generation() {
		t.Fatalf("reload kept generation %d", cur.Generation())
	}
	if n := core.DFAMemoRetained(cur.Completer()); n != 0 {
		t.Fatalf("new snapshot memo holds %d sources before any query, want 0", n)
	}
	if n := core.DFAMemoRetained(old.Completer()); n != 1 {
		t.Fatalf("pinned old snapshot memo holds %d sources, want 1 until it retires", n)
	}
	old.Release() // the last reference: the snapshot retires and closes its Completer
	if n := core.DFAMemoRetained(old.Completer()); n != 0 {
		t.Fatalf("retired snapshot memo holds %d sources, want 0", n)
	}
}
