package analysis

import "go/ast"

// WithStack walks every node of every file, handing the visitor the node
// plus its ancestor stack (stack[0] is the *ast.File, stack[len-1] is the
// immediate parent of n; n itself is not included). Returning false prunes
// the subtree. It replaces x/tools' inspector.WithStack for our analyzers.
func WithStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
				return true
			}
			return false
		})
	}
}
