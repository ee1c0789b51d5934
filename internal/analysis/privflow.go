package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// privflow: flow-sensitive taint analysis over the BuildCFG/Solve engine.
//
// The paper's guarantee is that only differentially-private releases leave
// the mechanism boundary. privflow enforces the code-level contrapositive:
// raw preference/adjacency data (graph accessor results, dataset record
// fields, similarity scores) must never flow into an observability or
// egress channel (logs, error strings, span attributes, metric labels,
// HTTP response bodies) without passing a sanitizer (a mechanism release
// constructor, dp.Snap, or an aggregate count).
//
// # Model
//
// Taint is tracked per local variable (types.Object) through a forward
// dataflow fixpoint on the function's CFG, so `if debug { slog.Info(...) }`
// is analyzed on the branch where it happens and a reassignment
// `x = released` clears taint on the paths that follow it.
//
// Sources (concrete taint):
//   - element-level accessor methods on internal/graph types (Neighbors,
//     Items, Weight, Degree, ...); the graph handle itself stays clean,
//     as do whole-graph aggregates (NumUsers, AvgDegree, Sparsity, ...)
//   - any value whose type involves similarity.Scores or dataset.RawEdge
//   - raw input reads (bufio/io/os read calls) inside internal/dataset,
//     the module's ingestion trust boundary
//
// Sinks: slog and log calls, fmt.Errorf/errors.New arguments,
// span-attribute constructors and span names (internal/trace), metric
// label values, stage names and exemplar trace IDs (internal/telemetry),
// HTTP response writers and http.Error, and panic.
//
// Sanitizers: internal/mechanism New* release constructors, dp.Snap and
// dp.SnapValue, release (*Release).Snap, len/cap, and the aggregate
// methods listed above.
//
// # Interprocedural precision
//
// Analysis is per-package and per-function, with a one-level call summary
// for same-package helpers: every function is first solved with its
// parameters labeled, producing (a) which parameters reach which sinks
// and (b) how taint flows from parameters and in-function sources to each
// result. Call sites then use the summary, so a helper that formats a raw
// value into an error is caught at the call site, and a helper that
// ignores its argument does not spread taint. Calls with no summary
// (other packages, function values) conservatively taint their results
// from tainted arguments and receivers, but deliberately do not taint
// through-pointer arguments: out-parameter mutation is rare in this
// codebase and modeling it would swamp the serving path with false
// positives. Function literals are analyzed after their enclosing
// function, seeding captured variables with the union of the enclosing
// fixpoint (flow-insensitive captures).
type PrivFlow struct{}

// Name implements Analyzer.
func (PrivFlow) Name() string { return "privflow" }

// Doc implements Analyzer.
func (PrivFlow) Doc() string {
	return "flow-sensitive taint analysis: raw preference/adjacency/similarity data " +
		"(graph accessors, dataset records, similarity scores) must not reach " +
		"observability or egress sinks (slog/log, fmt.Errorf, errors.New, span " +
		"attributes, metric labels, HTTP responses, panic) without passing a DP " +
		"release constructor, dp.Snap, or an aggregate"
}

// Run implements Analyzer: two passes per function. The first solves every
// function with its parameters labeled, yielding one-level summaries
// (param→sink and param→result flows). The second re-solves with concrete
// sources only, consulting the summaries at same-package call sites, and
// reports every tainted value that reaches a sink. Function literals are
// analyzed after their enclosing function with captured variables seeded
// from the enclosing fixpoint. Test files are exempt: tests assert on raw
// fixtures by design.
func (pf PrivFlow) Run(pass *Pass) {
	inDataset := pass.RelPath() == "internal/dataset"
	type fnUnit struct {
		decl *ast.FuncDecl
		cfg  *CFG
		obj  *types.Func
	}
	var fns []fnUnit
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			fns = append(fns, fnUnit{decl: fd, cfg: BuildCFG(fd.Body), obj: obj})
		}
	}

	summaries := map[*types.Func]*funcSummary{}
	for _, fu := range fns {
		if fu.obj != nil {
			summaries[fu.obj] = computeSummary(pass, fu.decl, fu.cfg, inDataset)
		}
	}

	for _, fu := range fns {
		reportTaintFlows(pass, fu.decl, fu.cfg, summaries, inDataset)
	}
}

// paramObjects lists the function's receiver and parameters in summary
// index order (receiver first). Unnamed parameters hold their index with a
// nil entry.
func paramObjects(pass *Pass, fd *ast.FuncDecl) []types.Object {
	var objs []types.Object
	addList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				objs = append(objs, nil)
				continue
			}
			for _, name := range field.Names {
				objs = append(objs, pass.Info.Defs[name])
			}
		}
	}
	addList(fd.Recv)
	addList(fd.Type.Params)
	return objs
}

// namedResultObjects lists named result variables ([] if results are
// unnamed or absent).
func namedResultObjects(pass *Pass, fd *ast.FuncDecl) []types.Object {
	var objs []types.Object
	if fd.Type.Results == nil {
		return nil
	}
	for _, field := range fd.Type.Results.List {
		for _, name := range field.Names {
			objs = append(objs, pass.Info.Defs[name])
		}
	}
	return objs
}

func numDeclResults(fd *ast.FuncDecl) int {
	if fd.Type.Results == nil {
		return 0
	}
	n := 0
	for _, field := range fd.Type.Results.List {
		if len(field.Names) == 0 {
			n++
		} else {
			n += len(field.Names)
		}
	}
	return n
}

// computeSummary solves fd with parameters labeled and records which
// parameters reach sinks and how taint reaches each result.
func computeSummary(pass *Pass, fd *ast.FuncDecl, cfg *CFG, inDataset bool) *funcSummary {
	objs := paramObjects(pass, fd)
	boundary := map[types.Object]labelSet{}
	for i, obj := range objs {
		if obj != nil {
			boundary[obj] |= paramBit(i)
		}
	}
	nres := numDeclResults(fd)
	sum := &funcSummary{results: make([]labelSet, nres)}
	interp := &taintInterp{pass: pass, boundary: boundary, inDataset: inDataset}
	solved := Solve(cfg, interp)

	seen := map[paramSink]bool{}
	interp.onParamSink = func(param int, sink string) {
		ps := paramSink{param: param, sink: sink}
		if !seen[ps] {
			seen[ps] = true
			sum.sinks = append(sum.sinks, ps)
		}
	}
	namedRes := namedResultObjects(pass, fd)
	interp.onReturn = func(ret *ast.ReturnStmt, f *taintFacts) {
		switch {
		case len(ret.Results) == 0:
			for i, obj := range namedRes {
				if obj != nil && i < nres {
					sum.results[i] |= f.m[obj]
				}
			}
		case len(ret.Results) == 1 && nres > 1:
			for i, l := range interp.callResults(ret.Results[0], nres, f) {
				sum.results[i] |= l
			}
		default:
			for i, r := range ret.Results {
				if i < nres {
					sum.results[i] |= interp.exprTaint(r, f)
				}
			}
		}
	}
	interp.replay(cfg, solved)
	return sum
}

// reportTaintFlows solves fd concretely (parameters clean, summaries
// available) and reports every tainted value reaching a sink, then
// analyzes the function's literals with captured state.
func reportTaintFlows(pass *Pass, fd *ast.FuncDecl, cfg *CFG, summaries map[*types.Func]*funcSummary, inDataset bool) {
	solveAndReport(pass, fd.Body, cfg, nil, summaries, inDataset)
}

func solveAndReport(pass *Pass, body *ast.BlockStmt, cfg *CFG, boundary map[types.Object]labelSet, summaries map[*types.Func]*funcSummary, inDataset bool) {
	interp := &taintInterp{pass: pass, boundary: boundary, summaries: summaries, inDataset: inDataset}
	solved := Solve(cfg, interp)

	type reportKey struct {
		pos  token.Pos
		sink string
	}
	reported := map[reportKey]bool{}
	interp.report = func(pos token.Pos, expr ast.Expr, sink, via string) {
		k := reportKey{pos: pos, sink: sink}
		if reported[k] {
			return
		}
		reported[k] = true
		rendered := types.ExprString(expr)
		if via != "" {
			pass.Reportf(pos, "tainted value %q reaches %s via call to %s; raw preference/adjacency data must pass a mechanism release or aggregate before export", rendered, sink, via)
		} else {
			pass.Reportf(pos, "tainted value %q reaches %s; raw preference/adjacency data must pass a mechanism release or aggregate before export", rendered, sink)
		}
	}
	interp.replay(cfg, solved)

	// Function literals: seed captures from the union of the enclosing
	// fixpoint (flow-insensitive: a closure may run at any point).
	captured := map[types.Object]labelSet{}
	for obj, l := range boundary {
		captured[obj] |= l
	}
	for _, bf := range solved {
		for obj, l := range bf.Out.(*taintFacts).m {
			captured[obj] |= l
		}
	}
	for _, lit := range directFuncLits(body) {
		solveAndReport(pass, lit.Body, BuildCFG(lit.Body), captured, summaries, inDataset)
	}
}

// directFuncLits returns the function literals in body that are not nested
// inside another literal (those are found when their enclosing literal is
// analyzed).
func directFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, fl)
			return false
		}
		return true
	})
	return lits
}

// labelSet is a taint lattice element: bit 0 is concrete taint (a value
// derived from an in-function source); bit i+1 marks derivation from
// parameter i (receiver counts as parameter 0 of a method). Functions with
// more than 62 parameters lose tracking of the tail, which is harmless:
// missing bits only lose summary precision, never concrete findings.
type labelSet uint64

const taintedBit labelSet = 1

func paramBit(i int) labelSet {
	if i > 61 {
		return 0
	}
	return 1 << (uint(i) + 1)
}

// paramBits masks the parameter-derivation bits of l.
func (l labelSet) paramBits() labelSet { return l &^ taintedBit }

// taintFacts maps each in-scope object to its labels. Absent = clean.
type taintFacts struct {
	m map[types.Object]labelSet
}

func newTaintFacts() *taintFacts { return &taintFacts{m: map[types.Object]labelSet{}} }

// Copy implements Facts.
func (t *taintFacts) Copy() Facts {
	c := &taintFacts{m: make(map[types.Object]labelSet, len(t.m))}
	for k, v := range t.m {
		c.m[k] = v
	}
	return c
}

// Merge implements Facts (pointwise union).
func (t *taintFacts) Merge(other Facts) bool {
	o := other.(*taintFacts)
	changed := false
	for k, v := range o.m {
		if t.m[k]|v != t.m[k] {
			t.m[k] |= v
			changed = true
		}
	}
	return changed
}

// funcSummary is the one-level interprocedural summary of a same-package
// function: how parameter and source taint reaches its results, and which
// parameters flow into sinks inside it.
type funcSummary struct {
	// results[i] is the label set of the i-th result: taintedBit means the
	// result carries taint from an internal source regardless of
	// arguments; paramBit(j) means taint flows from parameter j.
	results []labelSet
	// sinks lists parameters that reach a sink inside the function.
	sinks []paramSink
}

type paramSink struct {
	param int
	sink  string
}

// taintInterp interprets one function body over taintFacts. It implements
// FlowAnalysis; the same node-interpretation is reused for the final
// reporting replay, where report/onParamSink/onReturn are non-nil.
type taintInterp struct {
	pass      *Pass
	summaries map[*types.Func]*funcSummary
	boundary  map[types.Object]labelSet
	inDataset bool

	// replay hooks (nil while solving):
	report      func(pos token.Pos, expr ast.Expr, sink string, viaCall string)
	onParamSink func(param int, sink string)
	onReturn    func(ret *ast.ReturnStmt, f *taintFacts)
}

// Boundary implements FlowAnalysis.
func (t *taintInterp) Boundary() Facts {
	f := newTaintFacts()
	for obj, l := range t.boundary {
		f.m[obj] = l
	}
	return f
}

// Bottom implements FlowAnalysis.
func (t *taintInterp) Bottom() Facts { return newTaintFacts() }

// Transfer implements FlowAnalysis.
func (t *taintInterp) Transfer(b *Block, in Facts) Facts {
	f := in.(*taintFacts)
	for _, n := range b.Nodes {
		t.node(n, f)
	}
	return f
}

// replay re-interprets every block from its solved entry facts, with the
// reporting hooks active, so each sink is checked against the facts that
// actually hold at that program point.
func (t *taintInterp) replay(cfg *CFG, solved map[*Block]*BlockFacts) {
	for _, b := range cfg.Blocks {
		f := solved[b].In.Copy().(*taintFacts)
		for _, n := range b.Nodes {
			t.node(n, f)
		}
	}
}

// node interprets one CFG node: applies assignment effects and evaluates
// expressions (which checks sinks when replaying).
func (t *taintInterp) node(n ast.Node, f *taintFacts) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		t.assign(n, f)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			t.valueSpec(vs, f)
		}
	case *ast.RangeStmt:
		l := t.exprTaint(n.X, f)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := t.objectOf(id); obj != nil {
					t.set(obj, l, f)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			t.exprTaint(r, f)
		}
		if t.onReturn != nil {
			t.onReturn(n, f)
		}
	case *ast.ExprStmt:
		t.exprTaint(n.X, f)
	case *ast.SendStmt:
		t.exprTaint(n.Chan, f)
		t.exprTaint(n.Value, f)
	case *ast.GoStmt:
		t.exprTaint(n.Call, f)
	case *ast.DeferStmt:
		t.exprTaint(n.Call, f)
	case *ast.IncDecStmt:
		// numeric, taint unchanged
	case *ast.BranchStmt:
		// control only
	case ast.Expr:
		// decomposed branch condition or switch tag
		t.exprTaint(n, f)
	}
}

func (t *taintInterp) valueSpec(vs *ast.ValueSpec, f *taintFacts) {
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		labels := t.callResults(vs.Values[0], len(vs.Names), f)
		for i, name := range vs.Names {
			t.setIdent(name, labels[i], f)
		}
		return
	}
	for i, name := range vs.Names {
		var l labelSet
		if i < len(vs.Values) {
			l = t.exprTaint(vs.Values[i], f)
		}
		t.setIdent(name, l, f)
	}
}

func (t *taintInterp) assign(s *ast.AssignStmt, f *taintFacts) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		// compound (+=, |=, ...): x op= e keeps x's taint and adds e's
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			l := t.exprTaint(s.Lhs[0], f) | t.exprTaint(s.Rhs[0], f)
			t.assignTo(s.Lhs[0], l, f, false)
		}
		return
	}
	var labels []labelSet
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		labels = t.callResults(s.Rhs[0], len(s.Lhs), f)
	} else {
		labels = make([]labelSet, len(s.Rhs))
		for i, r := range s.Rhs {
			labels[i] = t.exprTaint(r, f)
		}
	}
	for i, lhs := range s.Lhs {
		if i < len(labels) {
			t.assignTo(lhs, labels[i], f, true)
		}
	}
}

// assignTo propagates a label into an assignment target. Writing through an
// ident is a strong update; writing through an index/field/pointer taints
// the root container weakly (no kill).
func (t *taintInterp) assignTo(lhs ast.Expr, l labelSet, f *taintFacts, strong bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		if obj := t.objectOf(lhs); obj != nil {
			if strong {
				t.set(obj, l, f)
			} else if l != 0 {
				f.m[obj] |= l
			}
		}
	default:
		if root := rootIdent(lhs); root != nil && l != 0 {
			if obj := t.objectOf(root); obj != nil {
				f.m[obj] |= l
			}
		}
	}
}

func (t *taintInterp) setIdent(id *ast.Ident, l labelSet, f *taintFacts) {
	if id.Name == "_" {
		return
	}
	if obj := t.objectOf(id); obj != nil {
		t.set(obj, l, f)
	}
}

func (t *taintInterp) set(obj types.Object, l labelSet, f *taintFacts) {
	if l == 0 {
		delete(f.m, obj)
	} else {
		f.m[obj] = l
	}
}

func (t *taintInterp) objectOf(id *ast.Ident) types.Object {
	if obj := t.pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return t.pass.Info.Uses[id]
}

// rootIdent finds the base identifier of a selector/index/star chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// callResults evaluates a (possibly multi-result) expression to n labels.
func (t *taintInterp) callResults(e ast.Expr, n int, f *taintFacts) []labelSet {
	labels := make([]labelSet, n)
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		// v, ok := m[k] / x.(T) / <-ch: both results take the operand's taint
		l := t.exprTaint(e, f)
		for i := range labels {
			labels[i] = l
		}
		return labels
	}
	per := t.call(call, f)
	for i := range labels {
		if i < len(per) {
			labels[i] = per[i]
		} else if len(per) > 0 {
			labels[i] = per[len(per)-1]
		}
	}
	return labels
}

// exprTaint evaluates e's label set under f, checking sinks when replaying.
func (t *taintInterp) exprTaint(e ast.Expr, f *taintFacts) labelSet {
	if e == nil {
		return 0
	}
	l := t.typeTaint(e)
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := t.objectOf(e); obj != nil {
			l |= f.m[obj]
		}
	case *ast.BasicLit:
		// constant, clean
	case *ast.FuncLit:
		// analyzed separately after the enclosing function
	case *ast.BinaryExpr:
		l |= t.exprTaint(e.X, f) | t.exprTaint(e.Y, f)
	case *ast.UnaryExpr:
		l |= t.exprTaint(e.X, f)
	case *ast.StarExpr:
		l |= t.exprTaint(e.X, f)
	case *ast.IndexExpr:
		l |= t.exprTaint(e.X, f)
		t.exprTaint(e.Index, f)
	case *ast.SliceExpr:
		l |= t.exprTaint(e.X, f)
	case *ast.TypeAssertExpr:
		l |= t.exprTaint(e.X, f)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				l |= t.exprTaint(kv.Value, f)
				continue
			}
			l |= t.exprTaint(el, f)
		}
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := t.pass.Info.Uses[id].(*types.PkgName); isPkg {
				return l // qualified package identifier, e.g. http.StatusOK
			}
		}
		xl := t.exprTaint(e.X, f)
		if rawMetadataField(t.pass.Info.TypeOf(e.X), e.Sel.Name) {
			xl = 0 // metadata selection: sheds type taint and param flow alike
		}
		l |= xl
	case *ast.CallExpr:
		per := t.call(e, f)
		for _, pl := range per {
			l |= pl
		}
	}
	return l
}

// typeTaint marks values whose type is raw-by-construction: similarity
// score vectors and raw dataset edges, directly or inside a container.
func (t *taintInterp) typeTaint(e ast.Expr) labelSet {
	if typeIsRaw(t.pass.Info.TypeOf(e)) {
		return taintedBit
	}
	return 0
}

func typeIsRaw(ty types.Type) bool {
	for i := 0; i < 8 && ty != nil; i++ {
		switch u := ty.(type) {
		case *types.Pointer:
			ty = u.Elem()
			continue
		case *types.Slice:
			ty = u.Elem()
			continue
		case *types.Array:
			ty = u.Elem()
			continue
		case *types.Map:
			ty = u.Elem()
			continue
		case *types.Chan:
			ty = u.Elem()
			continue
		}
		break
	}
	named, ok := ty.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Name() == "Scores" && pathIsOrEndsWith(obj.Pkg().Path(), "internal/similarity"):
		return true
	case obj.Name() == "RawEdge" && pathIsOrEndsWith(obj.Pkg().Path(), "internal/dataset"):
		return true
	case obj.Name() == "Record" && pathIsOrEndsWith(obj.Pkg().Path(), "internal/wal"):
		// A WAL record carries raw graph adjacency: preference-edge
		// operands are the private data the whole framework protects.
		return true
	}
	return false
}

// rawMetadataField reports whether selecting field from a raw-by-
// construction struct yields public metadata rather than adjacency. A
// wal.Record's Seq and Op are the documented exception: recovery and
// replay errors must name the sequence number and operation — and never
// the operands — so selecting those fields sheds the type taint.
func rawMetadataField(ty types.Type, field string) bool {
	for i := 0; i < 4; i++ {
		p, ok := ty.(*types.Pointer)
		if !ok {
			break
		}
		ty = p.Elem()
	}
	named, ok := ty.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	if obj.Name() == "Record" && pathIsOrEndsWith(obj.Pkg().Path(), "internal/wal") {
		return field == "Seq" || field == "Op"
	}
	return false
}

// call evaluates a call expression to per-result label sets, applying
// sources, sanitizers, summaries, and (when replaying) sink checks.
func (t *taintInterp) call(call *ast.CallExpr, f *taintFacts) []labelSet {
	// Conversions: T(x) keeps x's taint.
	if tv, ok := t.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []labelSet{t.exprTaint(call.Args[0], f)}
		}
		return []labelSet{0}
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := t.pass.Info.Uses[id].(*types.Builtin); isBuiltin || t.pass.Info.Uses[id] == nil && t.pass.Info.Defs[id] == nil {
			return t.builtinCall(id.Name, call, f)
		}
	}

	// Evaluate receiver and arguments once.
	recv := t.callReceiver(call, f)
	args := make([]labelSet, len(call.Args))
	for i, a := range call.Args {
		args[i] = t.exprTaint(a, f)
	}

	fn := t.calleeFunc(call)
	nres := t.numResults(call)

	if t.isSanitizer(fn) {
		return make([]labelSet, max(nres, 1))
	}
	if t.isSourceCall(fn) {
		// Every non-error result is raw data; error results stay clean
		// (an I/O error describes the failure, not the payload), so
		// wrapping a read error with fmt.Errorf is not a leak.
		out := make([]labelSet, max(nres, 1))
		resTy := t.pass.Info.TypeOf(call)
		for i := range out {
			var rt types.Type
			if tup, ok := resTy.(*types.Tuple); ok && i < tup.Len() {
				rt = tup.At(i).Type()
			} else if i == 0 {
				rt = resTy
			}
			if typeIncludesError(rt) {
				continue
			}
			out[i] = taintedBit
		}
		return out
	}

	// Sink check (replay only).
	t.checkSink(call, fn, recv, args)

	// One-level summary for same-package functions.
	if fn != nil && t.summaries != nil {
		if sum, ok := t.summaries[fn]; ok {
			return t.applySummary(call, fn, sum, recv, args, nres)
		}
	}

	// Unknown call: results take the union of receiver and arguments.
	union := recv
	for _, a := range args {
		union |= a
	}
	out := make([]labelSet, max(nres, 1))
	for i := range out {
		out[i] = union
	}
	return out
}

func (t *taintInterp) builtinCall(name string, call *ast.CallExpr, f *taintFacts) []labelSet {
	var union labelSet
	for _, a := range call.Args {
		union |= t.exprTaint(a, f)
	}
	switch name {
	case "len", "cap", "make", "new", "delete", "close", "clear", "recover", "min", "max", "real", "imag", "complex":
		// aggregates and allocations are clean (len of a tainted slice is a
		// size, not an element)
		return []labelSet{0}
	case "append", "copy":
		return []labelSet{union}
	case "panic":
		if t.report != nil {
			for _, a := range call.Args {
				if t.exprTaint(a, f)&taintedBit != 0 {
					t.report(a.Pos(), a, "panic", "")
				}
			}
		}
		if t.onParamSink != nil {
			for _, a := range call.Args {
				for j := 0; j < 62; j++ {
					if t.exprTaint(a, f)&paramBit(j) != 0 {
						t.onParamSink(j, "panic")
					}
				}
			}
		}
		return []labelSet{0}
	default:
		return []labelSet{union}
	}
}

// callReceiver returns the taint of the method receiver, or 0 for plain
// function calls.
func (t *taintInterp) callReceiver(call *ast.CallExpr, f *taintFacts) labelSet {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := t.pass.Info.Uses[id].(*types.PkgName); isPkg {
			return 0
		}
	}
	return t.exprTaint(sel.X, f)
}

// calleeFunc resolves the called function or method, when statically known.
func (t *taintInterp) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := t.objectOf(fun).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := t.pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func (t *taintInterp) numResults(call *ast.CallExpr) int {
	ty := t.pass.Info.TypeOf(call)
	if ty == nil {
		return 1
	}
	if tup, ok := ty.(*types.Tuple); ok {
		return tup.Len()
	}
	return 1
}

// fnPkgPath returns the declaring package path of fn ("" for builtins).
func fnPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isMethod reports whether fn has a receiver.
func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// graphSourceMethods are element-level accessors on internal/graph types
// whose results are raw per-user data.
var graphSourceMethods = map[string]bool{
	"Neighbors": true, "HasEdge": true, "Degree": true,
	"LocalClusteringCoefficient": true, "DegreeHistogram": true,
	"BFSDistances": true, "TwoHopNeighborhoodSize": true,
	"ConnectedComponents": true, "MainComponent": true, "InducedSubgraph": true,
	"Items": true, "Users": true, "Weight": true,
	"UserDegree": true, "ItemDegree": true,
	"Edges": true, "MaxWeight": true,
}

// graphAggregateMethods are whole-graph aggregates: DP-releasable public
// statistics, clean even on a derived (tainted) graph handle.
var graphAggregateMethods = map[string]bool{
	"NumUsers": true, "NumItems": true, "NumEdges": true,
	"AvgDegree": true, "AvgItemDegree": true, "Sparsity": true,
	"AvgClusteringCoefficient": true,
}

// datasetReadFuncs are raw-input reads that act as sources inside
// internal/dataset, the ingestion trust boundary.
var datasetReadFuncs = map[string]bool{
	"ReadString": true, "ReadSlice": true, "ReadBytes": true,
	"ReadLine": true, "ReadRune": true, "Text": true, "Bytes": true,
	"ReadAll": true, "ReadFile": true,
}

func (t *taintInterp) isSourceCall(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	path := fnPkgPath(fn)
	if isMethod(fn) && pathIsOrEndsWith(path, "internal/graph") && graphSourceMethods[fn.Name()] {
		return true
	}
	if t.inDataset {
		switch path {
		case "bufio", "io", "os":
			if datasetReadFuncs[fn.Name()] {
				return true
			}
		}
	}
	return false
}

func (t *taintInterp) isSanitizer(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	path := fnPkgPath(fn)
	switch {
	case pathIsOrEndsWith(path, "internal/mechanism") && !isMethod(fn) && strings.HasPrefix(fn.Name(), "New"):
		return true
	case pathIsOrEndsWith(path, "internal/dp") && (fn.Name() == "Snap" || fn.Name() == "SnapValue"):
		return true
	case pathIsOrEndsWith(path, "internal/release") && fn.Name() == "Snap":
		return true
	case isMethod(fn) && pathIsOrEndsWith(path, "internal/graph") && graphAggregateMethods[fn.Name()]:
		return true
	}
	return false
}

// sinkSpec describes which arguments of a recognized sink call leak.
type sinkSpec struct {
	name string
	// args are the leaking argument indexes; nil means every argument.
	args []int
}

// slog/log emission functions by name.
var slogFuncs = map[string]bool{
	"Debug": true, "Info": true, "Warn": true, "Error": true, "Log": true,
	"DebugContext": true, "InfoContext": true, "WarnContext": true,
	"ErrorContext": true, "LogAttrs": true, "With": true, "Group": true,
}

func logFuncName(name string) bool {
	return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fatal") ||
		strings.HasPrefix(name, "Panic") || name == "Output"
}

// sinkOf classifies a resolved callee as an observability/egress sink.
func (t *taintInterp) sinkOf(call *ast.CallExpr, fn *types.Func) *sinkSpec {
	if fn == nil {
		return nil
	}
	path, name := fnPkgPath(fn), fn.Name()
	method := isMethod(fn)
	switch {
	case path == "log/slog" && slogFuncs[name]:
		return &sinkSpec{name: "slog." + name}
	case path == "log" && logFuncName(name):
		return &sinkSpec{name: "log." + name}
	case path == "fmt" && name == "Errorf":
		return &sinkSpec{name: "fmt.Errorf"}
	case path == "errors" && name == "New":
		return &sinkSpec{name: "errors.New"}
	case path == "fmt" && strings.HasPrefix(name, "Fprint"):
		if len(call.Args) > 0 && t.isResponseWriter(call.Args[0]) {
			return &sinkSpec{name: "the HTTP response body", args: tail(len(call.Args))}
		}
		return nil
	case path == "net/http" && name == "Error":
		return &sinkSpec{name: "the HTTP error body", args: []int{1}}
	case method && name == "Write" && t.recvIsResponseWriter(call):
		return &sinkSpec{name: "the HTTP response body"}
	case method && pathIsOrEndsWith(path, "internal/trace") && recvNamed(fn) == "Key" &&
		(name == "Int" || name == "Bool" || name == "Ident"):
		return &sinkSpec{name: "span attribute trace.Key." + name}
	case pathIsOrEndsWith(path, "internal/trace") && strings.HasPrefix(name, "Start"):
		return &sinkSpec{name: "span name " + name, args: nameArgIndex(call, method)}
	case method && pathIsOrEndsWith(path, "internal/telemetry") && (name == "With" || name == "MustWith"):
		return &sinkSpec{name: "metric label " + recvNamed(fn) + "." + name, args: []int{0}}
	case method && pathIsOrEndsWith(path, "internal/trace") && name == "Middleware":
		return &sinkSpec{name: "span name Middleware", args: []int{0}}
	case method && pathIsOrEndsWith(path, "internal/telemetry") && recvNamed(fn) == "StageTable" && name == "Observe":
		return &sinkSpec{name: "telemetry stage name", args: []int{0}}
	case method && pathIsOrEndsWith(path, "internal/telemetry") && name == "ObserveExemplar":
		return &sinkSpec{name: "exemplar trace ID", args: []int{1}}
	}
	return nil
}

// nameArgIndex finds the span-name argument of trace Start functions:
// Start(ctx, name) and (t *Tracer) StartRoot(ctx, name, ...) both have the
// name at index 1.
func nameArgIndex(call *ast.CallExpr, method bool) []int {
	if len(call.Args) > 1 {
		return []int{1}
	}
	return nil
}

func tail(n int) []int {
	out := make([]int, 0, n)
	for i := 1; i < n; i++ {
		out = append(out, i)
	}
	return out
}

func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	ty := sig.Recv().Type()
	if p, ok := ty.(*types.Pointer); ok {
		ty = p.Elem()
	}
	if named, ok := ty.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func (t *taintInterp) isResponseWriter(e ast.Expr) bool {
	return typeIsResponseWriter(t.pass.Info.TypeOf(e))
}

func (t *taintInterp) recvIsResponseWriter(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && typeIsResponseWriter(t.pass.Info.TypeOf(sel.X))
}

func typeIsResponseWriter(ty types.Type) bool {
	named, ok := ty.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "ResponseWriter" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// checkSink reports (replay) or records (summary collection) flows into a
// recognized sink.
func (t *taintInterp) checkSink(call *ast.CallExpr, fn *types.Func, recv labelSet, args []labelSet) {
	if t.report == nil && t.onParamSink == nil {
		return
	}
	spec := t.sinkOf(call, fn)
	if spec == nil {
		return
	}
	idxs := spec.args
	if idxs == nil {
		idxs = make([]int, len(args))
		for i := range args {
			idxs[i] = i
		}
	}
	for _, i := range idxs {
		if i >= len(args) {
			continue
		}
		l := args[i]
		if t.report != nil && l&taintedBit != 0 {
			t.report(call.Args[i].Pos(), call.Args[i], spec.name, "")
		}
		if t.onParamSink != nil {
			for j := 0; j < 62; j++ {
				if l&paramBit(j) != 0 {
					t.onParamSink(j, spec.name)
				}
			}
		}
	}
	_ = recv
}

// applySummary computes call results from a same-package summary and
// reports arguments that the callee forwards to a sink.
func (t *taintInterp) applySummary(call *ast.CallExpr, fn *types.Func, sum *funcSummary, recv labelSet, args []labelSet, nres int) []labelSet {
	// Map the callee's parameter index space (receiver = 0 for methods)
	// onto this call's receiver/argument labels.
	paramLabel := func(j int) labelSet {
		if isMethod(fn) {
			if j == 0 {
				return recv
			}
			j--
		}
		if j < len(args) {
			return args[j]
		}
		if len(args) > 0 {
			return args[len(args)-1] // variadic tail
		}
		return 0
	}
	if t.report != nil {
		reported := map[int]bool{}
		for _, ps := range sum.sinks {
			if reported[ps.param] {
				continue
			}
			if paramLabel(ps.param)&taintedBit != 0 {
				reported[ps.param] = true
				argIdx := ps.param
				if isMethod(fn) {
					argIdx--
				}
				pos := call.Pos()
				var expr ast.Expr = call
				if argIdx >= 0 && argIdx < len(call.Args) {
					pos = call.Args[argIdx].Pos()
					expr = call.Args[argIdx]
				}
				t.report(pos, expr, ps.sink, fn.Name())
			}
		}
	}
	if t.onParamSink != nil {
		for _, ps := range sum.sinks {
			l := paramLabel(ps.param)
			for j := 0; j < 62; j++ {
				if l&paramBit(j) != 0 {
					t.onParamSink(j, ps.sink)
				}
			}
		}
	}
	out := make([]labelSet, max(nres, 1))
	for i := range out {
		var ri labelSet
		if i < len(sum.results) {
			ri = sum.results[i]
		}
		l := ri & taintedBit
		for j := 0; j < 62; j++ {
			if ri&paramBit(j) != 0 {
				l |= paramLabel(j)
			}
		}
		out[i] = l
	}
	return out
}
