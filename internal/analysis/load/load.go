// Package load holds the type-checking plumbing the sslint suite shares
// without golang.org/x/tools (unavailable in this repo's offline build
// image): the types.Info maps the analyzers read and a gc export-data
// importer, which cmd/sslint's vet unit and the analysistest fixture
// harness both type-check with, plus the export-data lookup the harness
// resolves a fixture's imports through.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
)

// NewInfo allocates the types.Info maps the analyzers consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// ExportImporter returns a types.Importer that resolves import paths
// (after applying importMap, the per-package test-variant rewrites) to gc
// export-data files. Each call returns a fresh importer so different
// import maps never share a package cache.
func ExportImporter(fset *token.FileSet, importMap map[string]string, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// DepExports runs `go list -deps -export -json` (run from dir) over the
// given import paths, typically standard-library packages a test fixture
// needs, which compiles their export data into the build cache, and
// returns the import path to export-data file map.
func DepExports(dir string, paths []string) (map[string]string, error) {
	exports := map[string]string{}
	if len(paths) == 0 {
		return exports, nil
	}
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json", "--"}, paths...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%w\n%s", err, exit.Stderr)
		}
		return nil, fmt.Errorf("go list %s: %w", strings.Join(paths, " "), err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			ImportPath string
			Export     string
			Error      *struct{ Err string }
		}
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}
