package analysis

import (
	"go/ast"
)

// TimeNow reports time.Now()-derived integer seeds (time.Now().UnixNano()
// and friends) in non-test code. Every experiment in this repository is
// reproducible because seeds are explicit configuration; a wall-clock seed
// silently breaks replay of a paper figure, and — worse — a wall-clock
// seed for privacy noise is predictable by an adversary who knows roughly
// when the release was produced, without even a search over the seed
// space (no seed keeps the noise secret; see dp.NewLaplaceSource).
// Measuring elapsed time with time.Now()/time.Since stays legal; only the
// conversion of the current time into an integer usable as a seed is
// flagged.
type TimeNow struct{}

// Name returns "timenow".
func (TimeNow) Name() string { return "timenow" }

// Doc describes the invariant.
func (TimeNow) Doc() string {
	return "no time.Now().Unix*() seeds in non-test code; seeds are explicit configuration"
}

// seedConversions are the time.Time methods that turn the current time
// into a seedable integer.
var seedConversions = map[string]bool{
	"Unix":      true,
	"UnixMilli": true,
	"UnixMicro": true,
	"UnixNano":  true,
}

// Run checks every non-test file.
func (TimeNow) Run(pass *Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		aliases := importAliases(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !isSel || !seedConversions[sel.Sel.Name] {
				return true
			}
			inner, isInner := ast.Unparen(sel.X).(*ast.CallExpr)
			if !isInner {
				return true
			}
			if pkg, name, ok := calleePkgFunc(pass, aliases, inner); ok && pkg == "time" && name == "Now" {
				pass.Reportf(call.Pos(), "time.Now().%s() used as a seed breaks reproducibility; thread an explicit seed through configuration", sel.Sel.Name)
			}
			return true
		})
	}
}

var _ Analyzer = TimeNow{}
