// Command docscheck is the CI docs gate: it fails when a Go package in
// this repository is missing a package doc comment, or when a core
// internal package is missing its README.md. Run it from the repository
// root (CI does) or pass the root as the first argument.
//
//	go run ./tools/docscheck
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// readmeRequired lists the core internal packages that must carry a
// README.md mapping them to the paper (see ARCHITECTURE.md).
var readmeRequired = []string{
	"internal/asmr",
	"internal/sbc",
	"internal/rbc",
	"internal/bincon",
	"internal/accountability",
	"internal/adversary",
	"internal/crypto",
	"internal/harness",
	"internal/node",
	"internal/simnet",
	"internal/scenario",
	"internal/store",
	"internal/pipeline",
	"internal/conformance",
	"internal/mempool",
	"internal/load",
	"internal/obs",
	"internal/transport",
	"internal/chaos",
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string

	for _, rel := range readmeRequired {
		if _, err := os.Stat(filepath.Join(root, rel, "README.md")); err != nil {
			problems = append(problems, fmt.Sprintf("%s: missing README.md", rel))
		}
	}

	pkgDirs, err := goPackageDirs(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	for _, dir := range pkgDirs {
		ok, err := hasPackageDoc(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		if !ok {
			rel, _ := filepath.Rel(root, dir)
			problems = append(problems, fmt.Sprintf("%s: missing package doc comment", rel))
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d packages documented, %d READMEs present\n",
		len(pkgDirs), len(readmeRequired))
}

// goPackageDirs returns every directory under root holding non-test Go
// files, skipping hidden directories and testdata.
func goPackageDirs(root string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

// hasPackageDoc reports whether any non-test Go file in dir carries a
// package doc comment.
func hasPackageDoc(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return false, err
		}
		if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
			return true, nil
		}
	}
	return false, nil
}
