package repro_test

import (
	"bytes"
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
// discrete-event kernel is linked only by the two files that boot one. The
// adapter that once carried *sim.Proc across an upside-down edge stays
// deleted. bench/ is its own module and is not walked.
func TestLayering(t *testing.T) {
	const simPkg = `repro/internal/sim`
	var bootsKernel []string
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		path = filepath.ToSlash(path)
		isTest := strings.HasSuffix(path, "_test.go")
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if strings.HasPrefix(path, "internal/port/") && !isTest && strings.HasPrefix(p, "repro/") {
				t.Errorf("%s imports %s: internal/port must stay a leaf", path, p)
			}
			if p == simPkg && !isTest {
				bootsKernel = append(bootsKernel, path)
			}
		}
		inSeam := strings.HasPrefix(path, "internal/port/") || strings.HasPrefix(path, "internal/sim/")
		if !inSeam && !isTest && bytes.Contains(src, []byte("SimPort")) {
			t.Errorf("%s names SimPort: *sim.Proc is a port.Port, there is no adapter", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(bootsKernel)
	if want := []string{"internal/core/system.go", "internal/exp/fig8.go"}; !reflect.DeepEqual(bootsKernel, want) {
		t.Errorf("non-test files importing %s: %v, want %v (value types live in internal/port)", simPkg, bootsKernel, want)
	}
}
