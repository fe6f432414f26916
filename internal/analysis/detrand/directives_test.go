package detrand_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/directive"
	"repro/internal/analysis/sslint"
)

// TestDirectivesStayInEngine keeps engine.ChildRNG the module's one
// child-stream bridge: it parses every non-test Go file of the module
// (testdata, hidden directories and nested modules excluded, as the go
// tool excludes them) and fails on any detrand allow directive outside
// internal/engine. A new bridge calls engine.ChildRNG instead of carrying
// a directive of its own.
func TestDirectivesStayInEngine(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	engineDir := filepath.Join(root, "internal", "engine")
	inEngine := 0
	for _, d := range directive.Collect(fset, files, sslint.KnownChecks()).Directives() {
		if d.Check != "detrand" {
			continue
		}
		if filepath.Dir(d.Pos.Filename) == engineDir {
			inEngine++
			continue
		}
		t.Errorf("%s: detrand allow directive outside internal/engine; bridge child streams with engine.ChildRNG", d.Pos)
	}
	if inEngine == 0 {
		t.Errorf("found no detrand directive in %s: the walk missed the engine's sanctioned bridges", engineDir)
	}
}

// moduleRoot returns the directory of the go.mod enclosing the test's
// working directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's working directory")
		}
		dir = parent
	}
}
