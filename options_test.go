package nemesis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// An option field earns its place by having a caller that sets it. Fields
// no code sets hold their default forever and only widen the surface a
// reader has to learn, so the paper's fixed platform belongs in constants.
//
// The check matches fields by name alone: a dead field that shares its
// name with a field some code does set passes unnoticed.

// optionAllowlist holds the option fields no code sets yet that stay, each
// with its reason.
var optionAllowlist = map[string]string{
	"experiments.PagingOptions.Slices":          "ROADMAP item 5 varies the contract vector",
	"experiments.PagingOptions.Laxity":          "ROADMAP item 5 varies the contract vector",
	"experiments.Fig9Options.FSQoS":             "ROADMAP item 5 varies the contract vector",
	"experiments.Fig9Options.PagerSlices":       "ROADMAP item 5 varies the contract vector",
	"experiments.Fig9Options.Laxity":            "ROADMAP item 5 varies the contract vector",
	"experiments.ClusterOptions.HotFraction":    "the cluster result JSON echoes it, and hostbench's digests pin that JSON",
	"experiments.ClusterOptions.HotPeriod":      "the cluster result JSON echoes it, and hostbench's digests pin that JSON",
	"experiments.ClusterOptions.PagesPerDomain": "the cluster result JSON echoes it, and hostbench's digests pin that JSON",
	"workload.FSClientConfig.Partition":         "set from DefaultFSClientConfig's argument",
}

func TestEveryOptionHasASetter(t *testing.T) {
	fields, set := optionCensus(t)
	t.Logf("%d option fields", len(fields))
	unset := unsetOptions(fields, set)
	for _, f := range unset {
		if _, ok := optionAllowlist[f]; !ok {
			t.Errorf("%s: no function sets it; fold it into a constant at its use", f)
		}
	}
	for f := range optionAllowlist {
		if !slices.Contains(unset, f) {
			t.Errorf("allowlist entry %s names no unset option field: drop it", f)
		}
	}
}

// The census must report a field only its Default* function sets, and must
// count a keyed literal, an assignment and each step of a selector chain as
// sets.
func TestOptionCensusReportsUnsetField(t *testing.T) {
	const src = `package p
type FooOptions struct{ Keyed, Assigned, Outer, Inner, DefaultOnly int; hidden int }
func DefaultFooOptions() FooOptions { return FooOptions{DefaultOnly: 1} }
func use(o *FooOptions, w *struct{ Outer struct{ Inner int } }) FooOptions {
	o.Assigned = 2
	w.Outer.Inner++
	return FooOptions{Keyed: 1}
}`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	markSets(f, set)
	if got, want := unsetOptions(optionFields(f), set), []string{"p.FooOptions.DefaultOnly"}; !slices.Equal(got, want) {
		t.Fatalf("unset = %q, want %q", got, want)
	}
}

// unsetOptions returns the fields whose names set does not hold.
func unsetOptions(fields []string, set map[string]bool) []string {
	var out []string
	for _, f := range fields {
		if !set[f[strings.LastIndexByte(f, '.')+1:]] {
			out = append(out, f)
		}
	}
	return out
}

// optionCensus parses the module outside hostbench/ and returns the
// exported fields of every internal/ struct type whose name ends in
// Config, Options or Spec, as "pkg.Type.Field", and the names of every
// field some function sets. A keyed composite literal sets its keys, and an
// assignment sets each step of its left-hand selector chain. Functions
// named Default* or fillDefaults only state defaults, so they set nothing.
func optionCensus(t *testing.T) (fields []string, set map[string]bool) {
	t.Helper()
	set = map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "hostbench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			fields = append(fields, optionFields(f)...)
		}
		markSets(f, set)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(fields)
	return fields, set
}

// optionFields lists the exported fields of f's option structs.
func optionFields(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, s := range gd.Specs {
			ts := s.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			name := ts.Name.Name
			if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec")) {
				continue
			}
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					if id.IsExported() {
						out = append(out, f.Name.Name+"."+name+"."+id.Name)
					}
				}
			}
		}
	}
	return out
}

// markSets records the field names f's functions set, other than Default*
// and fillDefaults.
func markSets(f *ast.File, set map[string]bool) {
	chain := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				set[x.Sel.Name] = true
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || strings.HasPrefix(fn.Name.Name, "Default") || fn.Name.Name == "fillDefaults" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					set[id.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					chain(lhs)
				}
			case *ast.IncDecStmt:
				chain(x.X)
			}
			return true
		})
	}
}
