// Package pathcomplete disambiguates incomplete path expressions over
// object-oriented database schemas, reproducing Ioannidis & Lashkari,
// "Incomplete Path Expressions and their Disambiguation" (SIGMOD
// 1994).
//
// An incomplete path expression leaves part of its navigation
// unspecified with the ~ connector:
//
//	ta ~ name        →  ta@>grad@>student@>person.name
//	                    ta@>instructor@>teacher@>employee@>person.name
//
// The completer maps disambiguation to an optimal path computation
// over the schema graph: path labels compose connectors through the
// CON_c table and accumulate semantic length, and the AGG* function
// keeps the most cognitively plausible labels (strongest relationship
// kinds first, shortest semantic distance second).
//
// Quick start:
//
//	s := pathcomplete.University()
//	c := pathcomplete.NewCompleter(s, pathcomplete.Exact())
//	res, err := c.Complete(pathcomplete.MustParseExpr("ta~name"))
//	for _, comp := range res.Completions {
//		fmt.Println(comp.Path, comp.Label)
//	}
//
// This package is a thin facade; see the doc comments in the internal
// packages for the full story: internal/connector (the connector
// algebra, Table 1 and Figure 3), internal/label (CON, semantic
// length, AGG*), internal/core (the search, Algorithm 2),
// internal/objstore and internal/fox (evaluation and the Figure 1
// loop), internal/cupid and internal/experiment (the Section 5
// reproduction).
package pathcomplete

import (
	"io"

	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/feedback"
	"pathcomplete/internal/fox"
	"pathcomplete/internal/objstore"
	"pathcomplete/internal/parts"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/sdl"
	"pathcomplete/internal/uni"
)

// Schema is an immutable object-oriented schema graph; build one with
// NewSchemaBuilder or ParseSDL.
type Schema = schema.Schema

// SchemaBuilder assembles a Schema.
type SchemaBuilder = schema.Builder

// ClassID identifies a class within a Schema.
type ClassID = schema.ClassID

// NewSchemaBuilder returns a builder for a schema with the given
// display name, pre-populated with the primitive classes I, R, C, B.
func NewSchemaBuilder(name string) *SchemaBuilder { return schema.NewBuilder(name) }

// ParseSDL reads a schema from its text form (see the sdl package for
// the format: schema/class/isa/haspart/assoc/attr directives).
func ParseSDL(r io.Reader) (*Schema, error) { return sdl.Parse(r) }

// ParseSDLString is ParseSDL over a string.
func ParseSDLString(src string) (*Schema, error) { return sdl.ParseString(src) }

// WriteSDL serializes a schema in the format ParseSDL accepts.
func WriteSDL(w io.Writer, s *Schema) error { return sdl.Write(w, s) }

// Expr is a parsed path expression, possibly incomplete (containing ~
// steps).
type Expr = pathexpr.Expr

// Resolved is a complete path expression bound to a schema.
type Resolved = pathexpr.Resolved

// ParseExpr parses a path expression such as "ta~name" or
// "student.take.teacher".
func ParseExpr(src string) (Expr, error) { return pathexpr.Parse(src) }

// MustParseExpr is ParseExpr, panicking on error.
func MustParseExpr(src string) Expr { return pathexpr.MustParse(src) }

// Completer disambiguates incomplete path expressions over one schema.
type Completer = core.Completer

// Options configure a Completer; start from Paper, Safe, or Exact.
type Options = core.Options

// SearchOptions are per-search overrides (E, Tracer) for
// Completer.CompleteWith.
type SearchOptions = core.SearchOptions

// Completion is one optimal completion with its label.
type Completion = core.Completion

// Result is the outcome of completing one expression.
type Result = core.Result

// Paper returns the configuration of the algorithm exactly as
// published (Algorithm 2 with Section 4.1 caution sets).
func Paper() Options { return core.Paper() }

// Safe returns the near-exact heuristic configuration (extended
// caution sets and semantic-length slack).
func Safe() Options { return core.Safe() }

// Exact returns the configuration that provably computes the
// definitional answer set.
func Exact() Options { return core.Exact() }

// NewCompleter returns a Completer over the schema.
func NewCompleter(s *Schema, opts Options) *Completer { return core.New(s, opts) }

// Store is an in-memory object database over a schema.
type Store = objstore.Store

// OID identifies an object in a Store.
type OID = objstore.OID

// NewStore returns an empty object store over the schema.
func NewStore(s *Schema) *Store { return objstore.New(s) }

// Interp runs the complete query loop of the paper's Figure 1: parse →
// complete → approve → evaluate.
type Interp = fox.Interp

// Chooser resolves completion ambiguity (stands in for the user).
type Chooser = fox.Chooser

// AcceptAll approves every candidate completion.
func AcceptAll(cands []Completion) []int { return fox.AcceptAll(cands) }

// AcceptFirst approves only the best-ranked candidate.
func AcceptFirst(cands []Completion) []int { return fox.AcceptFirst(cands) }

// NewInterp returns a query interpreter over the store.
func NewInterp(store *Store, opts Options, chooser Chooser) *Interp {
	return fox.New(store, core.New(store.Schema(), opts), chooser)
}

// University returns the paper's Figure 2 example schema.
func University() *Schema { return uni.New() }

// UniversityStore returns the Figure 2 schema populated with sample
// objects.
func UniversityStore() *Store { return uni.SampleStore() }

// Parts returns the mechanical-assembly schema of the paper's Section
// 3.3.1 examples.
func Parts() *Schema { return parts.New() }

// Explain writes a human-readable derivation of a completion: the
// connector composition and semantic-length accumulation edge by edge.
func Explain(w io.Writer, c Completion) error { return core.Explain(w, c) }

// FeedbackLearner accumulates user accept/reject feedback and
// nominates domain-knowledge exclusions — the learning extension
// sketched in the paper's conclusions.
type FeedbackLearner = feedback.Learner

// NewFeedbackLearner returns an empty learner for the schema.
func NewFeedbackLearner(s *Schema) *FeedbackLearner { return feedback.NewLearner(s) }

// CupidConfig parameterizes the CUPID-scale synthetic schema
// generator.
type CupidConfig = cupid.Config

// CupidWorkload is a generated CUPID-scale schema with hub metadata.
type CupidWorkload = cupid.Workload

// DefaultCupidConfig matches the published CUPID shape (92 classes,
// 364 relationships).
func DefaultCupidConfig() CupidConfig { return cupid.DefaultConfig() }

// GenerateCupid builds a synthetic CUPID-scale workload.
func GenerateCupid(cfg CupidConfig) (*CupidWorkload, error) { return cupid.Generate(cfg) }
