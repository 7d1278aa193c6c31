package greensched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const internalPrefix = "greensched/internal/"

// goFiles returns the non-test .go files directly inside dir.
func goFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	return out
}

// parseImports returns the package name and the import paths of the
// given files, parsed in ImportsOnly mode.
func parseImports(t *testing.T, files []string) (pkg string, imports []string) {
	t.Helper()
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		pkg = f.Name.Name
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			imports = append(imports, p)
		}
	}
	return pkg, imports
}

// subdirs returns every directory under root, root included.
func subdirs(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEveryInternalPackageIsReachable enforces the rule that an
// internal package stays only if the non-test code of a root imports
// it, directly or through other internal packages. The roots are every
// main package under cmd/ and examples/ plus the bench module's
// non-test files; code imported only by tests does not count.
func TestEveryInternalPackageIsReachable(t *testing.T) {
	var queue []string
	var roots int
	for _, top := range []string{"cmd", "examples"} {
		for _, dir := range subdirs(t, top) {
			files := goFiles(t, dir)
			if len(files) == 0 {
				continue
			}
			if pkg, imports := parseImports(t, files); pkg == "main" {
				roots++
				queue = append(queue, imports...)
			}
		}
	}
	if files := goFiles(t, "bench"); len(files) > 0 {
		roots++
		_, imports := parseImports(t, files)
		queue = append(queue, imports...)
	}
	if roots == 0 {
		t.Fatal("no roots found: run from the repository root")
	}

	reached := map[string]bool{}
	for len(queue) > 0 {
		imp := queue[0]
		queue = queue[1:]
		if !strings.HasPrefix(imp, internalPrefix) {
			continue
		}
		dir := filepath.Join("internal", filepath.FromSlash(strings.TrimPrefix(imp, internalPrefix)))
		if reached[dir] {
			continue
		}
		reached[dir] = true
		_, imports := parseImports(t, goFiles(t, dir))
		queue = append(queue, imports...)
	}

	var orphans []string
	for _, dir := range subdirs(t, "internal") {
		if len(goFiles(t, dir)) > 0 && !reached[dir] {
			orphans = append(orphans, filepath.ToSlash(dir))
		}
	}
	sort.Strings(orphans)
	for _, dir := range orphans {
		t.Errorf("%s: no command, example or bench root imports it outside tests; delete it or use it", dir)
	}
}

// decl is one top-level declaration of an internal package: a func,
// type, var or const. Methods are not nodes of their own; they hang
// off their receiver's type and are scanned when it is reached.
type decl struct {
	pos  token.Position
	pkg  string
	name string
	refs []ast.Node // its body (and a type's methods), scanned once reached
}

// receiverType returns the base type name of a method receiver.
func receiverType(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// funcParts returns what a func declaration refers to: its receiver,
// signature and body, but not its own name.
func funcParts(fd *ast.FuncDecl) []ast.Node {
	parts := []ast.Node{fd.Type}
	if fd.Recv != nil {
		parts = append(parts, fd.Recv)
	}
	if fd.Body != nil {
		parts = append(parts, fd.Body)
	}
	return parts
}

// parseDir parses the non-test files directly inside dir.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, path := range goFiles(t, dir) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// internalDecls returns every top-level declaration of the non-test
// files in one internal package directory, keyed by name, plus the
// bodies of its init funcs, which are roots.
func internalDecls(fset *token.FileSet, files []*ast.File) (decls map[string]*decl, inits []ast.Node) {
	decls = map[string]*decl{}
	get := func(pkg, name string, pos token.Pos) *decl {
		d := decls[name]
		if d == nil {
			d = &decl{pkg: pkg, name: name}
			decls[name] = d
		}
		if pos.IsValid() && !d.pos.IsValid() {
			d.pos = fset.Position(pos)
		}
		return d
	}
	for _, f := range files {
		pkg := f.Name.Name
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				switch {
				case gd.Recv != nil:
					d := get(pkg, receiverType(gd.Recv.List[0].Type), token.NoPos)
					d.refs = append(d.refs, funcParts(gd)...)
				case gd.Name.Name == "init":
					inits = append(inits, funcParts(gd)...)
				default:
					d := get(pkg, gd.Name.Name, gd.Name.Pos())
					d.refs = append(d.refs, funcParts(gd)...)
				}
			case *ast.GenDecl:
				// An implicitly repeated const spec takes the type and
				// values of the last spec that spelled them out.
				var last []ast.Node
				for _, spec := range gd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						d := get(pkg, spec.Name.Name, spec.Name.Pos())
						d.refs = append(d.refs, spec.Type)
						if spec.TypeParams != nil {
							d.refs = append(d.refs, spec.TypeParams)
						}
					case *ast.ValueSpec:
						var refs []ast.Node
						if spec.Type != nil {
							refs = append(refs, spec.Type)
						}
						for _, v := range spec.Values {
							refs = append(refs, v)
						}
						if len(refs) == 0 && gd.Tok == token.CONST {
							refs = last
						}
						last = refs
						for _, n := range spec.Names {
							if n.Name == "_" {
								continue
							}
							d := get(pkg, n.Name, n.Pos())
							d.refs = append(d.refs, refs...)
						}
					}
				}
			}
		}
	}
	return decls, inits
}

// TestEveryInternalDeclarationIsReachable extends the package rule to
// top-level declarations: every func, type, var and const in the
// non-test files of internal/** must be reached from a root. Roots are
// every declaration in the non-test files under cmd/ and examples/, in
// the bench module's non-test bench/*.go, and every init func. An
// identifier in a reached declaration reaches every internal
// declaration of that name in any package, and reaching a type reaches
// all its methods. Name collisions only add liveness and methods
// follow their type, so neither interface satisfaction nor reflection
// can make the gate flag live code. A declaration only tests use
// belongs in a _test.go file of its package.
func TestEveryInternalDeclarationIsReachable(t *testing.T) {
	fset := token.NewFileSet()
	byName := map[string][]*decl{}
	var all []*decl
	var queue []ast.Node
	for _, dir := range subdirs(t, "internal") {
		decls, inits := internalDecls(fset, parseDir(t, fset, dir))
		queue = append(queue, inits...)
		for name, d := range decls {
			byName[name] = append(byName[name], d)
			all = append(all, d)
		}
	}

	var roots int
	var rootDirs []string
	for _, top := range []string{"cmd", "examples"} {
		rootDirs = append(rootDirs, subdirs(t, top)...)
	}
	rootDirs = append(rootDirs, "bench")
	for _, dir := range rootDirs {
		for _, f := range parseDir(t, fset, dir) {
			roots++
			for _, d := range f.Decls {
				queue = append(queue, d)
			}
		}
	}
	if roots == 0 {
		t.Fatal("no roots found: run from the repository root")
	}

	reached := map[*decl]bool{}
	for len(queue) > 0 {
		node := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			for _, d := range byName[id.Name] {
				if !reached[d] {
					reached[d] = true
					queue = append(queue, d.refs...)
				}
			}
			return true
		})
	}

	var orphans []*decl
	for _, d := range all {
		if !reached[d] {
			orphans = append(orphans, d)
		}
	}
	sort.Slice(orphans, func(i, j int) bool {
		a, b := orphans[i].pos, orphans[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, d := range orphans {
		t.Errorf("%s:%d %s.%s: no command, example or bench root reaches it outside tests; delete it, use it, or move it into a _test.go file",
			filepath.ToSlash(d.pos.Filename), d.pos.Line, d.pkg, d.name)
	}
}
