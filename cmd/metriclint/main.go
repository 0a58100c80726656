// Command metriclint runs the repository's custom static-analysis
// suite (internal/analysis) over the module:
//
//	metriclint ./...          # every package under the module root
//	metriclint ./internal/... # every package under a subtree
//	metriclint ./internal/ptree # one package
//
// The four analyzers machine-check invariants the type system cannot:
// epoch lock-section discipline (epochsection), encoder/decoder wire
// symmetry and frozen on-disk constants (wiresym), zero-alloc hot-path
// annotations (noalloc), and error consumption in the durability
// packages (stickyerr). See docs/STATIC_ANALYSIS.md.
//
// Findings print as file:line:col: analyzer: message; the exit status
// is 1 when there are findings, 2 on load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"metricindex/internal/analysis"
	"metricindex/internal/analysis/epochsection"
	"metricindex/internal/analysis/noalloc"
	"metricindex/internal/analysis/stickyerr"
	"metricindex/internal/analysis/wiresym"
)

var analyzers = []*analysis.Analyzer{
	epochsection.Analyzer,
	noalloc.Analyzer,
	stickyerr.Analyzer,
	wiresym.Analyzer,
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: metriclint [pattern ...]\n\npatterns: ./... or package directories; default ./...\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(run(flag.Args()))
}

func run(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		return 2
	}

	dirs, err := expand(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		return 2
	}

	status := 0
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			rel = dir
		}
		pkg, err := loader.LoadDir(dir, filepath.ToSlash(rel))
		if err != nil {
			fmt.Fprintf(os.Stderr, "metriclint: %s: %v\n", rel, err)
			status = 2
			continue
		}
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metriclint: %s: %v\n", rel, err)
			status = 2
			continue
		}
		for _, d := range diags {
			file := d.Pos.Filename
			if r, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(r, "..") {
				file = r
			}
			fmt.Printf("%s:%d:%d: %s: %s\n", file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
			if status == 0 {
				status = 1
			}
		}
	}
	return status
}

// expand resolves ./...-style patterns and plain directories into the
// list of package directories to check.
func expand(cwd string, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(ds ...string) {
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			base := filepath.Join(cwd, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			ds, err := analysis.PackageDirs(base)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			add(ds...)
			continue
		}
		abs := filepath.Join(cwd, filepath.FromSlash(p))
		if filepath.IsAbs(p) {
			abs = p
		}
		info, err := os.Stat(abs)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("%s: not a package directory", p)
		}
		add(abs)
	}
	return dirs, nil
}
