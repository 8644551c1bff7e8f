package lint

import (
	"go/ast"
	"go/types"

	"aq2pnn/internal/lint/analysis"
)

// CtxPlumb flags engine code that has a context.Context in hand and then
// ignores it on a blocking call: fabricating a fresh context.Background()
// or context.TODO(), or dialing with the context-less transport.Dial when
// transport.DialContext exists. A serving engine that drops its context on
// the floor cannot be cancelled or deadlined, which breaks the concurrent
// server's shutdown path (ServeRegistryTCP's drain contract).
var CtxPlumb = &analysis.Analyzer{
	Name: "ctxplumb",
	Doc: "flags blocking transport/pool calls that ignore an available " +
		"context.Context (context.Background/TODO or transport.Dial " +
		"inside a function with a ctx parameter)",
	Run: runCtxPlumb,
}

func runCtxPlumb(pass *analysis.Pass) error {
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || !isPackageRef(pass, sel.X) {
			return true
		}
		if !funcHasCtxParam(pass, stack) {
			return true
		}
		switch {
		case pkg.Name == "context" && (sel.Sel.Name == "Background" || sel.Sel.Name == "TODO"):
			pass.Reportf(call.Pos(),
				"context.%s inside a function that already receives a context.Context; plumb the caller's ctx through",
				sel.Sel.Name)
		case (pkg.Name == "transport" || pkg.Name == "net") && sel.Sel.Name == "Dial":
			pass.Reportf(call.Pos(),
				"%s.Dial ignores the available context.Context; use the DialContext variant so the call can be cancelled",
				pkg.Name)
		}
		return true
	})
	return nil
}

// funcHasCtxParam reports whether the innermost enclosing function
// declaration or literal takes a context.Context parameter.
func funcHasCtxParam(pass *analysis.Pass, stack []ast.Node) bool {
	fn := analysis.EnclosingFunc(stack)
	if fn == nil {
		return false
	}
	var ft *ast.FuncType
	switch f := fn.(type) {
	case *ast.FuncDecl:
		ft = f.Type
	case *ast.FuncLit:
		ft = f.Type
	}
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isContextType(pass, field.Type) {
			return true
		}
	}
	return false
}

func isContextType(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		// Fall back to the syntactic form context.Context.
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				return id.Name == "context" && sel.Sel.Name == "Context"
			}
		}
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
