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

// TestDirectivesStayInEngine keeps the module's sanctioned exceptions in
// internal/engine. It parses every non-test Go file of the module once
// (testdata, hidden directories and nested modules excluded, as the go
// tool excludes them) and holds each check's allow directives to a rule:
//   - detrand: only internal/engine may carry one, and it must carry at
//     least one, or the walk missed it. engine.ChildRNG is the one
//     child-stream bridge; a new bridge calls it instead of carrying a
//     directive of its own.
//   - detgoroutine: no file may carry one. Concurrency lives in
//     internal/engine and internal/serve, which need no directive, and a
//     process-wide cache is an engine.Memo.
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
	directives := directive.Collect(fset, files, sslint.KnownChecks()).Directives()
	engineDir := filepath.Join(root, "internal", "engine")
	for _, rule := range []struct {
		check    string
		inEngine bool // internal/engine may, and must, carry this check's directives
		fix      string
	}{
		{"detrand", true, "only internal/engine may carry one; bridge child streams with engine.ChildRNG"},
		{"detgoroutine", false, "no non-test file may carry one; keep process-wide values in an engine.Memo"},
	} {
		t.Run(rule.check, func(t *testing.T) {
			inEngine := 0
			for _, d := range directives {
				if d.Check != rule.check {
					continue
				}
				if rule.inEngine && filepath.Dir(d.Pos.Filename) == engineDir {
					inEngine++
					continue
				}
				t.Errorf("%s: %s allow directive: %s", d.Pos, rule.check, rule.fix)
			}
			if rule.inEngine && inEngine == 0 {
				t.Errorf("found no %s directive in %s: the walk missed the engine's sanctioned sites", rule.check, engineDir)
			}
		})
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
