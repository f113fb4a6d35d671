package metrics

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMetricNamesUnique reads every package under internal/ and requires
// the package-level Metric* and Gauge* string constants to name distinct
// metrics. Two constants with one value would make two counters share one
// registry entry: each bump lands in the other's count, and /metricsz shows
// one line for both. A constant defined as another constant (an alias for
// the same metric) is not a literal and is not collected.
func TestMetricNamesUnique(t *testing.T) {
	fset := token.NewFileSet()
	declared := make(map[string]string) // metric name -> first declaring constant
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if i >= len(vs.Values) || !isMetricConst(id.Name) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					value, err := strconv.Unquote(lit.Value)
					if err != nil {
						return err
					}
					where := f.Name.Name + "." + id.Name
					if first, dup := declared[value]; dup {
						t.Errorf("%s: %s = %q, already declared as %s", fset.Position(id.Pos()), where, value, first)
						continue
					}
					declared[value] = where
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no Metric*/Gauge* string constants found under internal/")
	}
	t.Logf("%d distinct metric names", len(declared))
}

func isMetricConst(name string) bool {
	return strings.HasPrefix(name, "Metric") || strings.HasPrefix(name, "Gauge")
}
