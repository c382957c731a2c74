package dmcsref

import (
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"
)

// TestImportsStdlibOnly keeps the model independent of the code it
// checks: every file of this package, tests included, may import the
// standard library and nothing else.
func TestImportsStdlibOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("listing the package's files: %v", err)
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if p, err := build.Default.Import(path, "", build.FindOnly); err != nil || !p.Goroot {
				t.Errorf("%s imports %q, which is not in the standard library", name, path)
			}
		}
	}
}
