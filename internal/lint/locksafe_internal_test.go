package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestInspectShallowSkipsFuncLit(t *testing.T) {
	src := "package p\n\nfunc f() {\n\tg(func() { h() })\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := file.Decls[0].(*ast.FuncDecl).Body
	sawLit, sawInner := false, false
	inspectShallow(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			sawLit = true
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == "h" {
			sawInner = true
		}
		return true
	})
	if !sawLit {
		t.Fatal("inspectShallow skipped the literal itself")
	}
	if sawInner {
		t.Fatal("inspectShallow descended into the literal body")
	}
}
