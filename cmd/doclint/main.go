// Command doclint is the documentation gate for `make check`: it fails
// when an exported identifier in the scanned packages lacks a doc comment,
// or when a package lacks a package-level comment. It parses source with
// go/ast only — no build, no type checking — so it is fast enough to run
// on every commit.
//
// Usage:
//
//	doclint [-v] [-design DESIGN.md] [-ops OPERATIONS.md] [dir ...]    # default: ./internal/...
//
// Rules:
//   - every package must carry a package comment (conventionally doc.go)
//   - every exported type, function, method (including methods declared
//     inside exported interface types), and exported struct field needs a
//     doc comment
//   - exported const/var declarations need a comment on the declaration
//     group or the individual name
//   - every S<N> design-section reference in a comment must name a section
//     that exists in DESIGN.md's inventory table, so refactors that
//     renumber or drop sections cannot leave dangling pointers in code
//   - the metrics inventory: every wsda_* metric family named by a string
//     literal in the scanned code appears in OPERATIONS.md §2, and every
//     family §2 names is one the code still registers
//   - single sites: an outgoing HTTP request is built (http.NewRequest*),
//     a streamed <results> response is begun (NewStreamWriter) and the
//     first-item histogram is registered (HistogramVec with
//     MetricFirstItemSeconds) only in the files singleSite allows, so a new
//     hand-built request or delivery loop fails the gate
//
// Test files and generated files are skipped.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

func main() {
	verbose := flag.Bool("v", false, "list every scanned package")
	design := flag.String("design", "DESIGN.md", "design doc whose S<N> inventory validates section references (\"\" disables)")
	ops := flag.String("ops", "OPERATIONS.md", "operator handbook whose §2 metrics catalog must match the wsda_* families in code (\"\" disables)")
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"internal"}
	}
	var dirs []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
	}
	sort.Strings(dirs)

	sections, err := loadDesignSections(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(2)
	}

	var problems []string
	scanned := 0
	metrics := map[string]string{} // family -> where the code first names it
	for _, dir := range dirs {
		probs, ok, err := lintDir(dir, sections, metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
		if !ok {
			continue
		}
		scanned++
		if *verbose {
			fmt.Printf("doclint: %s\n", dir)
		}
		problems = append(problems, probs...)
	}
	if *ops != "" {
		probs, err := lintMetricsInventory(*ops, metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
		problems = append(problems, probs...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d documentation problems in %d packages\n",
			len(problems), scanned)
		os.Exit(1)
	}
	if *verbose {
		fmt.Printf("doclint: %d packages clean\n", scanned)
	}
}

// designSectionRow matches an inventory row like "| S29 | ..." in the
// design doc, and sectionRef matches an S<N> reference in a Go comment.
// metricLiteral is a string literal that is exactly one wsda_* family
// name; metricMention finds family names in the handbook's prose, and
// catalogSection cuts the handbook down to its "## 2." chapter.
var (
	designSectionRow = regexp.MustCompile(`(?m)^\|\s*(S[0-9]+)\s*\|`)
	sectionRef       = regexp.MustCompile(`\bS[0-9]+\b`)
	metricLiteral    = regexp.MustCompile("^[\"`]wsda_[a-z0-9_]*[a-z0-9][\"`]$")
	metricMention    = regexp.MustCompile(`wsda_[a-z0-9_]*[a-z0-9]\b[_*]?`)
	catalogSection   = regexp.MustCompile(`(?ms)^## 2\. .*?(^## |\z)`)
)

// requestSites are the files that may build an outgoing HTTP request: the
// WSDA client's one request path, the change-feed tailer (it cannot import
// wsda) and the smoke test's probe client.
var requestSites = []string{"internal/wsda/httpbind.go", "internal/changefeed/tailer.go", "cmd/smoketest/main.go"}

// singleSite maps a callee name to the only files that may call it. With
// pkg set only calls qualified by it are restricted (http.NewRequest, not
// httptest.NewRequest); with arg set, only calls passing that identifier.
var singleSite = map[string]struct {
	pkg, arg string
	files    []string
}{
	"NewRequest":            {pkg: "http", files: requestSites},
	"NewRequestWithContext": {pkg: "http", files: requestSites},
	"NewStreamWriter":       {files: []string{"internal/wsda/edge.go"}},
	"HistogramVec":          {arg: "MetricFirstItemSeconds", files: []string{"internal/wsda/edge.go"}},
}

// lastName is the identifier an expression ends in: f for f and for p.f.
func lastName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	}
	return ""
}

// lintSingleSite reports a call that singleSite confines to other files.
func lintSingleSite(fset *token.FileSet, call *ast.CallExpr) string {
	rule, ok := singleSite[lastName(call.Fun)]
	if !ok || rule.arg != "" && !slices.ContainsFunc(call.Args, func(a ast.Expr) bool { return lastName(a) == rule.arg }) {
		return ""
	}
	if sel, _ := call.Fun.(*ast.SelectorExpr); rule.pkg != "" && (sel == nil || lastName(sel.X) != rule.pkg) {
		return ""
	}
	p := fset.Position(call.Pos())
	if slices.ContainsFunc(rule.files, func(f string) bool { return strings.HasSuffix(filepath.ToSlash(p.Filename), f) }) {
		return ""
	}
	return fmt.Sprintf("%s:%d: %s%s belongs to %s alone; go through the code there",
		p.Filename, p.Line, lastName(call.Fun), strings.TrimSuffix(" with "+rule.arg, " with "), strings.Join(rule.files, ", "))
}

// lintMetricsInventory compares the families the code names with the ones
// the handbook's metrics catalog lists. A mention ending in "_" or "*" is
// a prefix ("wsda_simnet_*"), not a family.
func lintMetricsInventory(path string, inCode map[string]string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading -ops: %w", err)
	}
	catalog := catalogSection.Find(data)
	if catalog == nil {
		return nil, fmt.Errorf("-ops %s has no \"## 2.\" metrics catalog", path)
	}
	inDoc := map[string]bool{}
	for _, m := range metricMention.FindAllString(string(catalog), -1) {
		if !strings.HasSuffix(m, "_") && !strings.HasSuffix(m, "*") {
			inDoc[m] = true
		}
	}
	var problems []string
	for name, where := range inCode {
		if !inDoc[name] {
			problems = append(problems, fmt.Sprintf("%s: metric family %s is missing from the %s §2 catalog", where, name, path))
		}
	}
	for name := range inDoc {
		if _, ok := inCode[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: §2 lists metric family %s, which no scanned code registers", path, name))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// loadDesignSections reads the design doc's S<N> inventory. A "" path
// disables reference checking (nil map).
func loadDesignSections(path string) (map[string]bool, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading -design: %w", err)
	}
	sections := map[string]bool{}
	for _, m := range designSectionRow.FindAllStringSubmatch(string(data), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		return nil, fmt.Errorf("-design %s holds no | S<N> | inventory rows", path)
	}
	return sections, nil
}

// lintDir scans the non-test Go files of one directory, adding the metric
// families they name to metrics. ok is false when the directory holds no
// Go package.
func lintDir(dir string, sections map[string]bool, metrics map[string]string) (problems []string, ok bool, err error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, false, err
	}
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		ok = true
		problems = append(problems, lintPackage(fset, dir, pkg, sections)...)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, isCall := n.(*ast.CallExpr); isCall {
					if p := lintSingleSite(fset, call); p != "" {
						problems = append(problems, p)
					}
				}
				if lit, isLit := n.(*ast.BasicLit); isLit && metricLiteral.MatchString(lit.Value) {
					if name := lit.Value[1 : len(lit.Value)-1]; metrics[name] == "" {
						p := fset.Position(lit.Pos())
						metrics[name] = fmt.Sprintf("%s:%d", p.Filename, p.Line)
					}
				}
				return true
			})
		}
	}
	return problems, ok, nil
}

// lintPackage applies the documentation rules to one parsed package.
func lintPackage(fset *token.FileSet, dir string, pkg *ast.Package, sections map[string]bool) []string {
	var problems []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}

	hasPkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		problems = append(problems,
			fmt.Sprintf("%s: package %s has no package comment (add a doc.go)", dir, pkg.Name))
	}

	for _, f := range pkg.Files {
		if isGenerated(f) {
			continue
		}
		if sections != nil {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, ref := range sectionRef.FindAllString(c.Text, -1) {
						if !sections[ref] {
							report(c.Pos(), "comment references design section %s, which is not in the DESIGN.md inventory", ref)
						}
					}
				}
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					report(d.Pos(), "exported %s %s is undocumented", kind, d.Name.Name)
				}
			case *ast.GenDecl:
				lintGenDecl(report, d)
			}
		}
	}
	sort.Strings(problems)
	return problems
}

// lintGenDecl checks one type/const/var declaration group.
func lintGenDecl(report func(token.Pos, string, ...any), d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "exported type %s is undocumented", s.Name.Name)
			}
			if st, isStruct := s.Type.(*ast.StructType); isStruct {
				for _, field := range st.Fields.List {
					for _, fn := range field.Names {
						if fn.IsExported() && field.Doc == nil && field.Comment == nil {
							report(field.Pos(), "exported field %s.%s is undocumented", s.Name.Name, fn.Name)
						}
					}
				}
			}
			if it, isIface := s.Type.(*ast.InterfaceType); isIface {
				for _, m := range it.Methods.List {
					for _, mn := range m.Names {
						if mn.IsExported() && m.Doc == nil && m.Comment == nil {
							report(m.Pos(), "exported interface method %s.%s is undocumented", s.Name.Name, mn.Name)
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(n.Pos(), "exported %s %s is undocumented", d.Tok, n.Name)
				}
			}
		}
	}
}

// receiverExported reports whether a function's receiver type (if any) is
// itself exported; a method on an unexported type is not reachable API,
// however it is capitalized.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

// isGenerated reports the standard "Code generated ... DO NOT EDIT."
// marker in the file's leading comments.
func isGenerated(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.End() > f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "// Code generated") && strings.HasSuffix(c.Text, "DO NOT EDIT.") {
				return true
			}
		}
	}
	return false
}
