//go:build ignore

// list prints "symbol<TAB>file:line<TAB>body lines" for every function in an
// untagged non-test file of a non-main package of the root module, the symbol
// spelled as `go tool nm` spells it once reach.sh has stripped decorations
// (gapbench/internal/grb.(*Vector).Extract). Run by scripts/reach.sh from the
// module root. The directory's leading underscore keeps the go tool and gapvet
// out: a directory of build-ignored files fails gapvet -perf's harvest.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() {
			// A nested module, fixtures, this file, .git and .bench_build.
			if name == "benchmark" || name == "testdata" || name == "scripts" || (name[0] == '.' && path != ".") {
				return filepath.SkipDir
			}
			return nil
		} else if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		// The sanitizer files carry a //go:build line: linked only under their tag.
		if f.Name.Name == "main" || bytes.HasPrefix(src, []byte("//go:build ")) {
			return nil
		}
		pkg := strings.TrimSuffix("gapbench/"+filepath.ToSlash(filepath.Dir(path)), "/.")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "init" {
				continue
			}
			recv := "" // "(*T)." or "T.", type parameters dropped
			if fn.Recv != nil {
				recv = types.ExprString(fn.Recv.List[0].Type)
				if i := strings.IndexByte(recv, '['); i >= 0 {
					recv = recv[:i]
				}
				if recv[0] == '*' {
					recv = "(" + recv + ")"
				}
				recv += "."
			}
			at := fset.Position(fn.Pos())
			lines := fset.Position(fn.Body.Rbrace).Line - fset.Position(fn.Body.Lbrace).Line + 1
			fmt.Printf("%s.%s%s\t%s:%d\t%d\n", pkg, recv, fn.Name.Name, path, at.Line, lines)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach list:", err)
		os.Exit(1)
	}
}
