package greensched

import (
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
