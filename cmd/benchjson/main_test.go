package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: pathcomplete
cpu: Example CPU @ 2.0GHz
BenchmarkUniversityTaName/paper-8         	  226455	      5239 ns/op	    4376 B/op	      52 allocs/op
BenchmarkFigure5-8	     100	   1017000 ns/op	        0.950 recall	        0.600 precision
PASS
ok  	pathcomplete	12.3s
`

func TestParse(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "pathcomplete" {
		t.Errorf("header parsed wrong: %+v", doc)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("want 2 results, got %d: %+v", len(doc.Results), doc.Results)
	}
	r := doc.Results[0]
	if r.Name != "BenchmarkUniversityTaName/paper" || r.Runs != 226455 ||
		r.NsPerOp != 5239 || r.BPerOp != 4376 || r.Allocs != 52 {
		t.Errorf("row 0 parsed wrong: %+v", r)
	}
	f := doc.Results[1]
	if f.Name != "BenchmarkFigure5" || f.Metrics["recall"] != 0.950 || f.Metrics["precision"] != 0.600 {
		t.Errorf("row 1 parsed wrong: %+v", f)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader("=== RUN TestX\n--- PASS: TestX\nrandom text\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 0 {
		t.Errorf("want no results, got %+v", doc.Results)
	}
}

// TestParseKeepsFirstPkg: a multi-package stream (the ledger runs the
// root and internal/core benchmarks) is named by its first package and
// keeps every package's rows.
func TestParseKeepsFirstPkg(t *testing.T) {
	stream := sample + "pkg: pathcomplete/internal/core\n" +
		"BenchmarkTracerOverhead/nil-2\t  158814\t      9659 ns/op\n"
	doc, err := parse(bufio.NewScanner(strings.NewReader(stream)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Pkg != "pathcomplete" || len(doc.Results) != 3 {
		t.Errorf("pkg = %q, %d results; want pathcomplete, 3", doc.Pkg, len(doc.Results))
	}
}
