// Package analysis is the home of dmcsvet: a family of static analyzers
// that machine-enforce the serving-path invariants this repository's
// performance work depends on — zero-allocation hot paths, snapshot
// immutability after publish, epoch-prefixed cache keys, arena
// checkout/release pairing, deterministic float accumulation, and the
// slice-shift queue-pop bug class.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic) but is built entirely on the
// standard library's go/ast, go/parser, go/types and go/importer, so the
// module keeps its zero-dependency contract. cmd/dmcsvet wraps the suite
// in a multichecker binary (dmcsvet ./...).
//
// # Annotations
//
// The analyzers are driven by machine-readable comment directives:
//
//	//dmcs:hotpath
//	    On a function: this function and every module function it
//	    statically calls must not allocate and must not take a
//	    non-striped lock (analyzer: hotpath).
//	//dmcs:striped
//	    On a mutex-typed struct field: the lock is sharded/striped and
//	    therefore allowed on a hot path.
//	//dmcs:keymaker
//	    On a function: its result is a canonical epoch-prefixed cache
//	    key (analyzer: epochkey).
//	//dmcs:keyed <param>
//	    On a function: the named parameter must be derived from a
//	    keymaker result at every call site. On a map-typed struct
//	    field (bare //dmcs:keyed): every index expression over the map
//	    must use a keymaker-derived key. On a []byte/string struct
//	    field (bare //dmcs:keyed): reads of the field are canonical by
//	    contract, and in exchange every write to it — assignment or
//	    composite literal, keyed or positional — must be a
//	    keymaker-derived value.
//	//dmcs:acquire <releaser>
//	    On a function: calling it checks out a pooled resource that
//	    must be released via the named function/method on every path
//	    (analyzer: arenapair).
//	//dmcs:owns <param>
//	    On a function: it takes ownership of the named resource
//	    parameter — passing a held resource to it counts as the
//	    caller's release, and the function itself must release the
//	    parameter on every path.
//	//dmcs:lazyinit
//	    On a struct field of a published snapshot type: writes are
//	    allowed after publish when guarded by sync.Once.Do (analyzer:
//	    snapshotsafe).
//	//dmcs:builder
//	    On a function: it constructs a not-yet-published snapshot and
//	    may write its fields (analyzer: snapshotsafe).
//	//dmcs:allow <analyzer> <reason>
//	    Waiver: suppresses the named analyzer's findings on this line
//	    or the line below. The reason is mandatory; a missing reason is
//	    itself a finding.
//
// See CONTRIBUTING.md ("Invariants the linter enforces") for the
// narrative version of each invariant.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check. It mirrors the x/tools analysis.Analyzer
// shape: Run inspects one package via its Pass and reports findings.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, positioned in the Program's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Pass connects one Analyzer run to one loaded package plus the whole
// Program (for cross-package checks such as hotpath reachability).
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Fset returns the file set all positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Prog.Fset }

// Reportf records one finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-safe shorthand for the package's type information.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// All returns the full dmcsvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		HotPath,
		SnapshotSafe,
		EpochKey,
		ArenaPair,
		FloatDet,
		SliceShift,
	}
}

// byName resolves an analyzer name against the suite.
func byName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// FuncAnnot is the parsed //dmcs: directive set of one function.
type FuncAnnot struct {
	Hotpath         bool
	Keymaker        bool
	KeyedParams     []string
	AcquireReleaser string
	Owns            []string
	Builder         bool
}

// FieldAnnot is the parsed //dmcs: directive set of one struct field.
type FieldAnnot struct {
	Striped  bool
	LazyInit bool
	Keyed    bool
}

// allowWaiver is one //dmcs:allow comment: it suppresses diagnostics of
// one analyzer on its own line and the next line.
type allowWaiver struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reason   string
}

// parseFuncAnnot extracts //dmcs: directives from a function's doc
// comment group. Malformed directives are reported through report.
func parseFuncAnnot(doc *ast.CommentGroup, report func(pos token.Pos, format string, args ...any)) *FuncAnnot {
	if doc == nil {
		return nil
	}
	var fa *FuncAnnot
	get := func() *FuncAnnot {
		if fa == nil {
			fa = &FuncAnnot{}
		}
		return fa
	}
	for _, c := range doc.List {
		directive, rest, ok := splitDirective(c.Text)
		if !ok {
			continue
		}
		switch directive {
		case "hotpath":
			get().Hotpath = true
		case "keymaker":
			get().Keymaker = true
		case "keyed":
			if rest == "" {
				report(c.Pos(), "malformed //dmcs:keyed on function: missing parameter name")
				continue
			}
			get().KeyedParams = append(get().KeyedParams, strings.Fields(rest)...)
		case "acquire":
			if rest == "" {
				report(c.Pos(), "malformed //dmcs:acquire: missing releaser name")
				continue
			}
			get().AcquireReleaser = strings.Fields(rest)[0]
		case "owns":
			if rest == "" {
				report(c.Pos(), "malformed //dmcs:owns: missing parameter name")
				continue
			}
			get().Owns = append(get().Owns, strings.Fields(rest)...)
		case "builder":
			get().Builder = true
		case "allow", "striped", "lazyinit":
			// handled elsewhere (allow: waiver pass; striped/lazyinit:
			// field annotations) — not an error to appear near a func.
		default:
			report(c.Pos(), "unknown //dmcs:%s directive", directive)
		}
	}
	return fa
}

// parseFieldAnnot extracts //dmcs: directives from a struct field's doc
// or trailing comment.
func parseFieldAnnot(groups ...*ast.CommentGroup) *FieldAnnot {
	var fa *FieldAnnot
	get := func() *FieldAnnot {
		if fa == nil {
			fa = &FieldAnnot{}
		}
		return fa
	}
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			directive, _, ok := splitDirective(c.Text)
			if !ok {
				continue
			}
			switch directive {
			case "striped":
				get().Striped = true
			case "lazyinit":
				get().LazyInit = true
			case "keyed":
				get().Keyed = true
			}
		}
	}
	return fa
}

// splitDirective decomposes a "//dmcs:name rest" comment into its
// directive name and argument text. Directive comments have no space
// after "//", matching Go toolchain directive conventions.
func splitDirective(text string) (directive, rest string, ok bool) {
	const prefix = "//dmcs:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	body := text[len(prefix):]
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		return body[:i], strings.TrimSpace(body[i+1:]), true
	}
	return body, "", true
}

// applyWaivers filters diags through the //dmcs:allow waivers collected
// at load time and appends a diagnostic for every malformed waiver.
// A waiver at line L suppresses matching diagnostics at L and L+1, so it
// can sit on the flagged line or on its own line directly above.
func (prog *Program) applyWaivers(diags []Diagnostic) []Diagnostic {
	type key struct {
		file     string
		line     int
		analyzer string
	}
	allowed := make(map[key]bool)
	var out []Diagnostic
	for _, w := range prog.waivers {
		if w.analyzer == "" || w.reason == "" {
			out = append(out, Diagnostic{
				Pos:      w.pos,
				Analyzer: "dmcsvet",
				Message:  "malformed //dmcs:allow: want //dmcs:allow <analyzer> <reason>",
			})
			continue
		}
		if byName(w.analyzer) == nil && w.analyzer != "all" {
			out = append(out, Diagnostic{
				Pos:      w.pos,
				Analyzer: "dmcsvet",
				Message:  fmt.Sprintf("//dmcs:allow names unknown analyzer %q", w.analyzer),
			})
			continue
		}
		allowed[key{w.file, w.line, w.analyzer}] = true
		allowed[key{w.file, w.line + 1, w.analyzer}] = true
	}
	for _, d := range diags {
		posn := prog.Fset.Position(d.Pos)
		if allowed[key{posn.Filename, posn.Line, d.Analyzer}] ||
			allowed[key{posn.Filename, posn.Line, "all"}] {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := prog.Fset.Position(out[i].Pos), prog.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// Run executes the given analyzers over every loaded package and returns
// the waiver-filtered, position-sorted findings.
func (prog *Program) Run(analyzers ...*Analyzer) ([]Diagnostic, error) {
	diags := append([]Diagnostic(nil), prog.annotDiags...)
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	return prog.applyWaivers(diags), nil
}
