// Package lint is the repository's mechanized reviewer: a small,
// dependency-free analysis framework (mirroring the shape of
// golang.org/x/tools/go/analysis, which this module deliberately does
// not depend on — see MIGRATION.md) plus the taslint analyzer suite
// that turns the repo's by-convention invariants into build failures.
//
// The invariants it pins, and the PRs that introduced them:
//
//   - detclock: deterministic packages (internal/dst, internal/dstrun,
//     internal/sim, internal/harness, internal/server) must draw all
//     time and goroutine spawning through dst.Clock, never the time
//     package or a bare go statement (PR 6's seed→schedule contract).
//   - detrand: all randomness comes from internal/rng splitmix64;
//     math/rand and crypto/rand imports are banned outside the blessed
//     seed-bootstrap sites (PR 2/PR 3 engine-v2 contract).
//   - detiter: no unsorted map iteration with effects in deterministic
//     packages (the rule PR 6 enforced by hand in sweeper/shutdown/
//     recovery paths).
//   - layout64: concurrent.Register — and any struct tagged with a
//     //taslint:cacheline directive — is exactly 64 bytes on 64-bit
//     targets (PR 2's false-sharing pad, PR 9's padding-resident
//     counters).
//   - atomicor: sync/atomic's typed Or/And methods are banned repo-wide
//     in favor of the explicit-CAS idiom (the go1.24.0 Uint64.Or
//     miscompile workaround from PR 4, pinned as policy).
//   - hotclock: the server's request/grant hot path reads the sweeper's
//     coarse clock, never Now() (the rule that bought ~15% net
//     throughput in PR 5).
//
// A site that must break a rule opts out with a directive comment on
// the offending line or the line directly above it:
//
//	//taslint:allow <analyzer> -- <reason>
//
// The reason is mandatory: a suppression without a justification is
// itself reported. Packages outside the built-in deterministic set opt
// in to the determinism analyzers with a //taslint:deterministic
// comment anywhere in one of their files.
//
// cmd/taslint wires the suite into go vet's -vettool protocol, so CI's
// lint gate is literally `go vet -vettool=$(taslint) ./...`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one analysis and its dependencies-free runner.
// It is the stdlib-only mirror of golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //taslint:allow directives.
	Name string
	// Doc is the one-line description shown by `taslint help`.
	Doc string
	// Run inspects one package unit and reports findings via
	// pass.Report. Returning an error aborts the whole run (reserved
	// for internal failures, not findings).
	Run func(pass *Pass) error
}

// A Pass carries one type-checked package unit through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the parsed syntax, comments included.
	Files []*ast.File
	// Pkg and TypesInfo are the go/types results for the unit.
	Pkg       *types.Package
	TypesInfo *types.Info
	// Sizes64 holds the gc sizing models for every supported 64-bit
	// target, keyed by GOARCH (layout64 checks all of them).
	Sizes64 map[string]types.Sizes
	// deterministic reports whether this unit is subject to the
	// determinism analyzers (built-in path set or directive opt-in).
	deterministic bool

	report func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Report records a finding. The driver applies //taslint:allow
// suppression afterwards, so analyzers never need to re-implement it.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Deterministic reports whether the unit under analysis is in the
// deterministic set: its import path matches DeterministicPaths or one
// of its files carries a //taslint:deterministic directive.
func (p *Pass) Deterministic() bool { return p.deterministic }

// IsTestFile reports whether pos sits in a _test.go file. The
// determinism analyzers skip test files: tests drive the system from
// outside the simulated schedule.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}

// DeterministicPaths lists the import-path suffixes of the packages
// under the PR 6 clock discipline: everything that runs inside (or is
// shared with) the deterministic whole-service simulation. A package
// matches when its path equals a suffix or ends in "/"+suffix, so the
// set is module-name agnostic.
var DeterministicPaths = []string{
	"internal/dst",
	"internal/dstrun",
	"internal/sim",
	"internal/harness",
	"internal/server",
}

func inDeterministicSet(path string) bool {
	// A test binary's synthesized unit keeps the underlying path
	// ("pkg [pkg.test]" — trim at the space).
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	for _, suf := range DeterministicPaths {
		if path == suf || strings.HasSuffix(path, "/"+suf) {
			return true
		}
	}
	return false
}

// Suite is the taslint analyzer set, in reporting order: the six
// repo-invariant analyzers, then the stdlib-only subset of the standard
// nilness pass (go vet itself runs lostcancel and copylocks).
func Suite() []*Analyzer {
	return []*Analyzer{
		DetClock,
		DetRand,
		DetIter,
		Layout64,
		AtomicOr,
		HotClock,
		Nilness,
	}
}

// Unit is one package compilation unit ready for analysis.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// RunUnit applies every analyzer to the unit and returns the surviving
// diagnostics (suppressions applied, invalid directives reported),
// sorted by position.
func RunUnit(u *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	det := inDeterministicSet(u.Pkg.Path()) || hasDeterministicDirective(u.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:      a,
			Fset:          u.Fset,
			Files:         u.Files,
			Pkg:           u.Pkg,
			TypesInfo:     u.Info,
			Sizes64:       Sizes64(),
			deterministic: det,
			report:        func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	diags = applyDirectives(u, diags)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// Sizes64 returns the gc sizing models for the 64-bit targets layout64
// must hold on.
func Sizes64() map[string]types.Sizes {
	return map[string]types.Sizes{
		"amd64": types.SizesFor("gc", "amd64"),
		"arm64": types.SizesFor("gc", "arm64"),
	}
}

// ---- directives -----------------------------------------------------

// allowRe matches "//taslint:allow <name> -- <reason>". The reason arm
// is matched separately so a missing one can be reported precisely.
var allowRe = regexp.MustCompile(`^//taslint:allow\s+([a-z0-9]+)\s*(?:--\s*(\S.*))?$`)

type allowDirective struct {
	analyzer string
	line     int // line the directive suppresses (its own, or the one below)
	pos      token.Pos
	reason   string
	used     bool
}

func hasDeterministicDirective(files []*ast.File) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == "//taslint:deterministic" {
					return true
				}
			}
		}
	}
	return false
}

// applyDirectives drops diagnostics covered by a well-formed allow
// directive and reports malformed or dangling ones.
func applyDirectives(u *Unit, diags []Diagnostic) []Diagnostic {
	// Collect directives per file, keyed by the line they cover.
	type key struct {
		file     string
		line     int
		analyzer string
	}
	var bad []Diagnostic
	covered := map[key]*allowDirective{}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//taslint:allow") {
					continue
				}
				m := allowRe.FindStringSubmatch(text)
				pos := u.Fset.Position(c.Pos())
				if m == nil || m[2] == "" {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "taslint",
						Message:  "malformed directive: want //taslint:allow <analyzer> -- <reason>",
					})
					continue
				}
				d := &allowDirective{analyzer: m[1], pos: c.Pos(), reason: m[2]}
				// A directive on its own line covers the next line; at
				// the end of a code line it covers that line. Register
				// both — the same line registration is harmless for a
				// standalone comment.
				covered[key{pos.Filename, pos.Line, m[1]}] = d
				covered[key{pos.Filename, pos.Line + 1, m[1]}] = d
			}
		}
	}
	var out []Diagnostic
	for _, d := range diags {
		pos := u.Fset.Position(d.Pos)
		if a, ok := covered[key{pos.Filename, pos.Line, d.Analyzer}]; ok {
			a.used = true
			continue
		}
		out = append(out, d)
	}
	return append(out, bad...)
}

// ---- shared type helpers -------------------------------------------

// pkgFunc resolves a call to a package-level function and returns its
// package path and name ("time", "Now"), or ok=false.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	obj := info.Uses[sel.Sel]
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// methodCall resolves a call to a method and returns the method object,
// or nil when the call is not a method call.
func methodCall(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return nil
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	return fn
}

// namedPath returns the package path and type name of t's core named
// type, following pointers, or ok=false for unnamed types.
func namedPath(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed || n.Obj().Pkg() == nil {
		return "", "", false
	}
	return n.Obj().Pkg().Path(), n.Obj().Name(), true
}
