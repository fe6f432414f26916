// Command sslint machine-checks the simulator's determinism contract
// (docs/ARCHITECTURE.md): byte-identical experiment output at any -workers
// count. It runs four analyzers — detwallclock, detrand, detmaprange,
// detgoroutine — with shared //sslint:allow suppression machinery.
//
// Both commands run the same analysis:
//
//	sslint [packages]                                   # defaults to ./...
//	go vet -vettool=$(go env GOPATH)/bin/sslint ./...
//
// sslint [packages] runs `go vet -vettool=<this executable> [packages]`,
// passing go vet's output through and exiting with its status, so cmd/go
// alone decides which packages and test variants are analyzed. As a vet
// tool sslint speaks cmd/go's unitchecker protocol: invoked once per
// package with a *.cfg JSON file, it prints findings to stderr and exits
// 2 when any survive, so go vet reports them under a "# importpath"
// header and fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis/load"
	"repro/internal/analysis/sslint"
)

// version is reported to cmd/go's -V=full handshake, which hashes it into
// the key of each cached vet result. cmd/go looks up only the facts-only
// (VetxOnly) passes over dependencies in that cache, never a target
// package's diagnostics, so a rebuilt sslint reports changed findings at
// once. sslint's facts file is always empty, so the string stays fixed: a
// per-build value would only make every dependency's facts pass re-run.
const version = "0.1.0"

func main() {
	progname := filepath.Base(os.Args[0])
	vFlag := flag.String("V", "", "if 'full', print tool version and exit (cmd/go tool-ID protocol)")
	flagsFlag := flag.Bool("flags", false, "print a JSON description of supported flags and exit (cmd/go vet protocol)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [packages]   (or via go vet -vettool)\n", progname)
		flag.PrintDefaults()
	}
	flag.Parse()

	switch {
	case *vFlag != "":
		// cmd/go parses this line in cmd/go/internal/work.(*Builder).toolID,
		// which demands "name version X" where X != "devel", or a trailing
		// buildID= field.
		fmt.Printf("%s version %s\n", progname, version)
		return
	case *flagsFlag:
		// No analyzer-specific flags beyond the protocol ones.
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		vetUnit(args[0])
		return
	}
	os.Exit(goVet(args))
}

// goVet runs go vet over patterns (default ./...) with this executable as
// the vet tool, streaming go vet's output, and returns go vet's exit status.
func goVet(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode()
		}
		fatalf("%v", err)
	}
	return 0
}

// vetConfig mirrors the fields vetUnit reads from the JSON configuration
// cmd/go hands a unitchecker-style vet tool for each package.
type vetConfig struct {
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetUnit analyzes one package under the go vet protocol.
func vetUnit(cfgFile string) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := &vetConfig{}
	if err := json.Unmarshal(data, cfg); err != nil {
		fatalf("parse %s: %v", cfgFile, err)
	}
	// The suite exports no analysis facts; an empty facts file lets cmd/go
	// cache each dependency's facts-only pass instead of re-running it.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
				fatalf("%v", err)
			}
		}
	}
	if cfg.VetxOnly {
		// Facts-only pass over a dependency: nothing to analyze.
		writeVetx()
		return
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return
			}
			fatalf("%v", err)
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer:  load.ExportImporter(fset, cfg.ImportMap, cfg.PackageFile),
		GoVersion: cfg.GoVersion,
	}
	info := load.NewInfo()
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return
		}
		fatalf("typecheck %s: %v", cfg.ImportPath, err)
	}

	findings, err := sslint.Run(fset, files, tpkg, info, sslint.Analyzers())
	if err != nil {
		fatalf("%s: %v", cfg.ImportPath, err)
	}
	writeVetx()
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, relativize(cfg.Dir, f.String()))
		}
		os.Exit(2)
	}
}

// relativize trims dir from a finding line so vet output stays readable.
func relativize(dir, line string) string {
	return strings.ReplaceAll(line, dir+string(filepath.Separator), "")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sslint: "+format+"\n", args...)
	os.Exit(1)
}
