package greensched

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// module is one Go module type-checked from its roots, with the state
// of its reachability analysis. Module packages are parsed here and the
// standard library is type-checked from source: no subprocess runs.
type module struct {
	dir, path string // root directory and import path
	fset      *token.FileSet
	info      *types.Info
	pkgs      map[string]*types.Package
	files     map[*types.Package][]*ast.File
	roots     map[string]bool
	decl      map[types.Object]ast.Node        // non-root declarations with the syntax to scan, and exported fields
	owner     map[types.Object]*types.TypeName // of exported fields
	live      map[types.Object]bool            // reached declarations and written fields
	called    map[*types.Func]bool             // what reached code selects, and the standard library's interface methods
	dynamic   map[string]types.Type            // the dynamic types of interface values
	queue     []ast.Node
}

func (m *module) Import(path string) (*types.Package, error) {
	if path != m.path && !strings.HasPrefix(path, m.path+"/") {
		return stdlib.Import(path)
	} else if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	bp, err := build.ImportDir(filepath.Join(m.dir, strings.TrimPrefix(path, m.path)), 0)
	var files []*ast.File
	for i := 0; err == nil && i < len(bp.GoFiles); i++ {
		var f *ast.File
		f, err = parser.ParseFile(m.fset, filepath.Join(bp.Dir, bp.GoFiles[i]), nil, parser.SkipObjectResolution)
		files = append(files, f)
	}
	if err != nil {
		return nil, err
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	m.pkgs[path], m.files[p] = p, files
	return p, err
}

// packages returns the import path of every package under the tops.
func (m *module) packages(tops ...string) map[string]bool {
	out := map[string]bool{}
	for _, top := range tops {
		filepath.WalkDir(filepath.Join(m.dir, top), func(dir string, d os.DirEntry, err error) error {
			if _, err := build.ImportDir(dir, 0); err == nil && d.IsDir() {
				rel, _ := filepath.Rel(m.dir, dir)
				out[m.path+"/"+filepath.ToSlash(rel)] = true
			}
			return err
		})
	}
	return out
}

var stdlib = importer.ForCompiler(token.NewFileSet(), "source", nil)

// loadModule type-checks the module at dir, whose import path is path,
// from the non-test packages under cmd/, examples/ and bench/.
func loadModule(t *testing.T, dir, path string) *module {
	build.Default.CgoEnabled = false // net and os/user type-check without cgo
	m := &module{dir: dir, path: path, fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{}, files: map[*types.Package][]*ast.File{},
		info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}}
	m.roots = m.packages("cmd", "examples", "bench")
	for ipath := range m.roots {
		if _, err := m.Import(ipath); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func (m *module) reach(obj types.Object) {
	if n := m.decl[obj]; n != nil && !m.live[obj] {
		m.live[obj] = true
		m.queue = append(m.queue, n)
	}
}

// convert records the values of exprs flowing into variables of the
// types to, whose last repeats; a tuple-valued call spreads over them.
func (m *module) convert(to []types.Type, exprs ...ast.Expr) {
	var from []types.Type
	for _, e := range exprs {
		from = append(from, typesOf(m.info.TypeOf(e))...)
	}
	for i, t := range from {
		if to := to[min(i, len(to)-1)]; to != nil && t != nil && types.IsInterface(to) && !types.IsInterface(t) {
			m.dynamic[types.TypeString(t, nil)] = t
		}
	}
}

// typesOf lists the types a tuple holds, or returns t alone.
func typesOf(t types.Type) (out []types.Type) {
	tup, ok := t.(*types.Tuple)
	if !ok {
		return []types.Type{t}
	}
	for i := range tup.Len() {
		out = append(out, tup.At(i).Type())
	}
	return out
}

// write marks the fields on the selector path of an assigned expression.
func (m *module) write(e ast.Expr) {
	if x, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if s := m.info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			m.live[s.Obj().(*types.Var).Origin()] = true
		}
		m.write(x.X)
	}
}

// scan reaches what syntax uses, and records its conversions and writes.
func (m *module) scan(root ast.Node) {
	results := [][]types.Type{nil} // per enclosing node, the results of the innermost func
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			results = results[:len(results)-1]
			return true
		}
		results = append(results, results[len(results)-1])
		switch n := n.(type) {
		case *ast.FuncDecl:
			results[len(results)-1] = typesOf(m.info.Defs[n.Name].Type().(*types.Signature).Results())
		case *ast.FuncLit:
			results[len(results)-1] = typesOf(m.info.TypeOf(n).(*types.Signature).Results())
		case *ast.ReturnStmt:
			m.convert(results[len(results)-1], n.Results...)
		case *ast.Ident:
			obj := m.info.Uses[n]
			if f, ok := obj.(*types.Func); ok {
				m.called[f], obj = true, f.Origin()
			}
			m.reach(obj)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				m.write(n.X)
			}
		case *ast.IncDecStmt:
			m.write(n.X)
		case *ast.AssignStmt:
			var to []types.Type
			for _, lhs := range n.Lhs {
				m.write(lhs)
				to = append(to, m.info.TypeOf(lhs))
			}
			m.convert(to, n.Rhs...)
		case *ast.ValueSpec:
			m.convert([]types.Type{m.info.TypeOf(n.Type)}, n.Values...)
		case *ast.CallExpr:
			tv := m.info.Types[n.Fun]
			to := []types.Type{tv.Type} // a conversion
			if sig, ok := tv.Type.Underlying().(*types.Signature); ok && !tv.IsType() {
				to = typesOf(sig.Params())
				if sig.Variadic() && !n.Ellipsis.IsValid() {
					to[len(to)-1] = to[len(to)-1].Underlying().(*types.Slice).Elem()
				}
			}
			m.convert(to, n.Args...)
		case *ast.CompositeLit:
			t := m.info.TypeOf(n).Underlying()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem().Underlying()
			}
			for i, e := range n.Elts {
				kv, keyed := e.(*ast.KeyValueExpr)
				var to types.Type
				if c, ok := t.(interface{ Elem() types.Type }); ok {
					to = c.Elem()
				} else if s, ok := t.(*types.Struct); ok {
					f := s.Field(i)
					if keyed {
						f = m.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
					}
					to, m.live[f.Origin()] = f.Type(), true
				}
				if keyed {
					e = kv.Value
				}
				m.convert([]types.Type{to}, e)
			}
		}
		return true
	})
}

// declare registers a declaration of p, or queues a root's and an init.
func (m *module) declare(p *types.Package, d ast.Decl) {
	gd, _ := d.(*ast.GenDecl)
	if fd, ok := d.(*ast.FuncDecl); ok && !m.roots[p.Path()] && (fd.Recv != nil || fd.Name.Name != "init") {
		m.decl[m.info.Defs[fd.Name]] = fd
	} else if gd == nil || m.roots[p.Path()] {
		m.queue = append(m.queue, d)
		gd = nil
	}
	for i := 0; gd != nil && i < len(gd.Specs); i++ {
		if s, ok := gd.Specs[i].(*ast.ValueSpec); ok {
			for _, n := range s.Names {
				m.decl[m.info.Defs[n]] = d // a const may repeat an earlier spec's expression
			}
		} else if s, ok := gd.Specs[i].(*ast.TypeSpec); ok {
			obj := m.info.Defs[s.Name].(*types.TypeName)
			m.decl[obj] = s
			st, _ := obj.Type().Underlying().(*types.Struct)
			for i := 0; st != nil && i < st.NumFields(); i++ {
				// encoding/xml reads an XMLName field's tag, not its value.
				if f := st.Field(i); f.Exported() && !f.Embedded() && f.Name() != "XMLName" {
					m.decl[f], m.owner[f] = nil, obj
				}
			}
		}
	}
}

// deadDeclarations maps each unreached declaration's name to its position.
func (m *module) deadDeclarations() map[string]string {
	m.decl, m.owner, m.live = map[types.Object]ast.Node{}, map[types.Object]*types.TypeName{}, map[types.Object]bool{}
	m.dynamic, m.queue = map[string]types.Type{}, nil
	m.called = map[*types.Func]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0): true}
	for p, files := range m.files {
		for _, q := range p.Imports() {
			for _, name := range q.Scope().Names() { // rule (b): interfaces the standard library declares
				if it, ok := q.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok && m.pkgs[q.Path()] == nil {
					for i := range it.NumMethods() {
						m.called[it.Method(i)] = true
					}
				}
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				m.declare(p, d)
			}
		}
	}
	for len(m.queue) > 0 {
		for i := 0; i < len(m.queue); i++ { // scan appends to the queue
			m.scan(m.queue[i])
		}
		m.queue = nil
		for _, t := range m.dynamic {
			for f := range m.called {
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && types.Implements(t, recv.Type().Underlying().(*types.Interface)) {
					obj, _, _ := types.LookupFieldOrMethod(t, false, f.Pkg(), f.Name())
					m.reach(obj.(*types.Func).Origin())
				}
			}
		}
	}
	out := map[string]string{}
	for obj := range m.decl {
		if t := m.owner[obj]; !m.live[obj] && obj.Name() != "_" && (t == nil || m.live[t]) {
			name := obj.Pkg().Name() + "." + obj.Name()
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				name = strings.TrimPrefix(types.TypeString(sig.Recv().Type(), (*types.Package).Name), "*") + "." + obj.Name()
			} else if t != nil {
				name = obj.Pkg().Name() + "." + t.Name() + "." + obj.Name()
			}
			out[name] = filepath.ToSlash(m.fset.Position(obj.Pos()).String())
		}
	}
	return out
}

func TestEveryInternalPackageIsReachable(t *testing.T) {
	m := loadModule(t, ".", "greensched")
	for ipath := range m.packages("internal") {
		if m.pkgs[ipath] == nil {
			t.Errorf("%s: no command, example or bench root imports it outside tests; delete it or use it", ipath)
		}
	}
}

// allowed holds the findings a ROADMAP item gives a root caller.
var allowed = map[string]string{
	"middleware.SED.SetActive": "N11 drains a SED before shutdown",
	"sim.Config.Crashes":       "N2 decides the fate of crash injection",
}

// TestEveryInternalDeclarationIsReachable flags each func, type, var,
// const and method of an internal package that no root reaches, and
// each exported field of a reached struct type that no root writes. The
// roots are the non-test files under cmd/, examples/ and bench/, and
// every init func. Three rules spread liveness:
//
//	(a) reached code reaches the objects it uses or selects, not names;
//	(b) a method is reached when a value of its receiver type converts
//	    to an interface, and reached code selects the same-named method
//	    of an interface the type implements, or that interface is one
//	    the standard library declares and so may call (error,
//	    fmt.Stringer, sort.Interface, ...);
//	(c) an exported field is written by a keyed or unkeyed composite
//	    literal, an assignment, ++ or --, or &x.f.
//
// Code only tests use belongs in a _test.go file, and a seam only
// in-package tests set is unexported. testdata/reach pins every rule:
// the gate must flag there exactly what its dead.txt lists.
func TestEveryInternalDeclarationIsReachable(t *testing.T) {
	dead := loadModule(t, ".", "greensched").deadDeclarations()
	for name := range allowed {
		if dead[name] == "" {
			t.Errorf("%s: a root reaches it now; drop it from allowed", name)
		}
		delete(dead, name)
	}
	for name, pos := range dead {
		t.Errorf("%s %s: no command, example or bench root reaches it outside tests; delete it, use it, or move it into a _test.go file", pos, name)
	}
	var got []string
	for name := range loadModule(t, filepath.Join("testdata", "reach"), "reach").deadDeclarations() {
		got = append(got, name+"\n")
	}
	sort.Strings(got)
	if want, err := os.ReadFile(filepath.Join("testdata", "reach", "dead.txt")); err != nil || strings.Join(got, "") != string(want) {
		t.Errorf("in testdata/reach the gate flags\n%swant the dead.txt list\n%s%v", strings.Join(got, ""), want, err)
	}
}
