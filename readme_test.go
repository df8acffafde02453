package chc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// architectureMapPaths returns the internal/... package paths README.md's
// "Architecture map" table lists, with `{a,b}` braces expanded.
func architectureMapPaths(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	text := string(raw)
	start := strings.Index(text, "## Architecture map")
	if start < 0 {
		t.Fatal("README.md has no Architecture map section")
	}
	rest := text[start:]
	if end := strings.Index(rest[1:], "\n## "); end >= 0 {
		rest = rest[:end+1]
	}
	rowRe := regexp.MustCompile("(?m)^\\| `(internal/[^`]+)` \\|")
	var paths []string
	for _, m := range rowRe.FindAllStringSubmatch(rest, -1) {
		paths = append(paths, expandBraces(m[1])...)
	}
	if len(paths) == 0 {
		t.Fatal("no internal/ paths parsed from README.md's Architecture map — table format changed?")
	}
	return paths
}

// expandBraces expands every `{a,b}` group in s, shell style.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	n := strings.IndexByte(s[open:], '}')
	if n < 0 {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:open+n], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[open+n+1:])...)
	}
	return out
}

// hasGoSource reports whether dir directly holds a non-test Go file.
func hasGoSource(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// TestArchitectureMapMatchesTree is the doc-drift guard for README.md's
// architecture map: every path it lists is a package in the tree, and every
// package under internal/ is listed or sits under a listed path.
func TestArchitectureMapMatchesTree(t *testing.T) {
	listed := architectureMapPaths(t)
	for _, p := range listed {
		if !hasGoSource(p) {
			t.Errorf("README.md's architecture map lists %s, which holds no non-test Go files", p)
		}
	}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		// The go tool ignores these directories, and so does the map.
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if !hasGoSource(path) {
			return nil
		}
		for _, p := range listed {
			if path == p || strings.HasPrefix(path, p+"/") {
				return nil
			}
		}
		t.Errorf("package %s is missing from README.md's architecture map", path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
