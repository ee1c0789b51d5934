package analysis

import (
	"go/ast"
	"go/types"
)

// CtxStage enforces that Run methods taking a context.Context actually
// honor it. Offline work has no timeout of its own: the pipeline's steps,
// for one, see the caller's deadline and cancellation only through the
// context pipeline.Step hands their compute function. Work that accepts
// the context but never consults it cannot be cut off, so a hung step
// wedges the whole offline release path and the operator's Ctrl-C leaves
// half-written work for the next resume to sort out. The analyzer flags
// any function or method named Run whose first parameter is a
// context.Context that is blank, unnamed, or never referenced in the body.
type CtxStage struct{}

// Name returns "ctxstage".
func (CtxStage) Name() string { return "ctxstage" }

// Doc describes the invariant.
func (CtxStage) Doc() string {
	return "Run methods that accept a context.Context must use it (the caller's cancellation and deadline are the only way to interrupt offline work such as a pipeline step)"
}

// Run checks every non-test file.
func (CtxStage) Run(pass *Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		aliases := importAliases(f)
		for _, decl := range f.Decls {
			fn, isFn := decl.(*ast.FuncDecl)
			if !isFn || fn.Name.Name != "Run" || fn.Body == nil {
				continue
			}
			params := fn.Type.Params
			if params == nil || len(params.List) == 0 {
				continue
			}
			first := params.List[0]
			if !isContextType(pass, aliases, first.Type) {
				continue
			}
			if len(first.Names) == 0 || first.Names[0].Name == "_" {
				pass.Reportf(first.Pos(), "Run discards its context.Context; name it and honor cancellation (e.g. check ctx.Err() or pass ctx on)")
				continue
			}
			name := first.Names[0]
			if !identUsed(pass, fn.Body, name) {
				pass.Reportf(name.Pos(), "Run never uses its context.Context %q; honor cancellation (e.g. check %s.Err() or pass %s on)", name.Name, name.Name, name.Name)
			}
		}
	}
}

// isContextType reports whether the parameter type expression is
// context.Context, preferring type information and falling back to the
// syntactic selector when type checking was incomplete.
func isContextType(pass *Pass, aliases map[string]string, expr ast.Expr) bool {
	if t := pass.Info.TypeOf(expr); t != nil {
		named, isNamed := t.(*types.Named)
		if !isNamed {
			return false
		}
		obj := named.Obj()
		return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
	}
	sel, isSel := ast.Unparen(expr).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Context" {
		return false
	}
	id, isIdent := sel.X.(*ast.Ident)
	return isIdent && aliases[id.Name] == "context"
}

// identUsed reports whether the parameter declared by decl is referenced
// anywhere in body, preferring object identity from the type checker and
// falling back to a name match.
func identUsed(pass *Pass, body *ast.BlockStmt, decl *ast.Ident) bool {
	obj := pass.Info.Defs[decl]
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		id, isIdent := n.(*ast.Ident)
		if !isIdent || id.Name != decl.Name {
			return true
		}
		if obj != nil {
			if uses, found := pass.Info.Uses[id]; found {
				if uses == obj {
					used = true
				}
				return true
			}
			return true
		}
		// No type information: a same-name identifier counts as a use.
		used = true
		return true
	})
	return used
}

var _ Analyzer = CtxStage{}
