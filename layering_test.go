package repro_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestLayering holds the import graph to the paper's portability argument:
// internal/port, the seam the protocol is written against, is a leaf of
// this module; the three backends stand beside each other above it; and the
// discrete-event kernel is linked only by the two files that boot one; the
// opacity check (internal/check) sees a run only through its trace. The
// adapter that once carried *sim.Proc across an upside-down edge stays
// deleted. bench/ is its own module and is not walked.
func TestLayering(t *testing.T) {
	const simPkg = `repro/internal/sim`
	var bootsKernel []string
	fset := token.NewFileSet()
	for _, path := range goFiles(t) {
		isTest := strings.HasSuffix(path, "_test.go")
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if strings.HasPrefix(path, "internal/port/") && !isTest && strings.HasPrefix(p, "repro/") {
				t.Errorf("%s imports %s: internal/port must stay a leaf", path, p)
			}
			if p == simPkg && !isTest {
				bootsKernel = append(bootsKernel, path)
			}
			if strings.HasPrefix(path, "internal/check/") && p == "repro/internal/core" {
				t.Errorf("%s imports %s: the opacity check reads a trace, not the runtime", path, p)
			}
		}
		inSeam := strings.HasPrefix(path, "internal/port/") || strings.HasPrefix(path, "internal/sim/")
		if !inSeam && !isTest && bytes.Contains(src, []byte("SimPort")) {
			t.Errorf("%s names SimPort: *sim.Proc is a port.Port, there is no adapter", path)
		}
	}
	sort.Strings(bootsKernel)
	if want := []string{"internal/core/system.go", "internal/exp/fig8.go"}; !reflect.DeepEqual(bootsKernel, want) {
		t.Errorf("non-test files importing %s: %v, want %v (value types live in internal/port)", simPkg, bootsKernel, want)
	}
}

// TestPortSeamIsWhatTheProtocolCalls holds port.Port to the methods its
// users call: each one must be called in some non-test file above the seam,
// that is outside internal/port and the three backends that implement it. A
// method nobody calls is surface every backend carries for no one. Calls are
// matched by method name, which can only over-approve.
func TestPortSeamIsWhatTheProtocolCalls(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "internal/port/port.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	called := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Port" {
			for _, m := range ts.Type.(*ast.InterfaceType).Methods.List {
				for _, name := range m.Names {
					called[name.Name] = false
				}
			}
		}
		return true
	})
	if len(called) == 0 {
		t.Fatal("no Port interface in internal/port/port.go")
	}
	for _, path := range goFiles(t) {
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "internal/port/") ||
			strings.HasPrefix(path, "internal/sim/") || strings.HasPrefix(path, "internal/live/") ||
			strings.HasPrefix(path, "internal/net/") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
					if _, isPort := called[sel.Sel.Name]; isPort {
						called[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}
	var unused []string
	for name, ok := range called {
		if !ok {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("port.Port.%s is called by no non-test file above the seam: delete it", name)
	}
}

// goFiles lists the module's Go files, slash-separated and relative to its
// root. bench/ is its own module and is not walked.
func goFiles(t *testing.T) []string {
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			paths = append(paths, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}
