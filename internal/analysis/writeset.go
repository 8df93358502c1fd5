package analysis

// writeset.go is the write-set half of the facts engine: for every function
// outside internal/graph it computes which stores go through memory *derived
// from the shared CSR graph* and which go through memory derived from the
// function's own parameters. "Derived" is a tiny aliasing lattice, not an
// SSA points-to analysis — the same trade the rest of facts.go makes:
//
//   - the lattice element (origin) is a bitset: one bit for "aliases
//     *graph.Graph backing arrays", one bit per parameter (receiver first);
//   - calls to the registered Graph accessor methods (graphAccessorSeeds)
//     are the graph seed; parameters seed their own bit;
//   - slicing, indexing, dereferencing, field selection, &-taking, slice
//     conversions, and append all pass origins through; local assignments
//     union origins flow-insensitively to a per-function fixpoint;
//   - per-function summaries (stores through graph memory, stores through
//     parameter i, origins of each result) propagate over the module call
//     graph to a global fixpoint, so a kernel handing g.OutWeights(u) to a
//     helper that zeroes its slice parameter is caught at the call site.
//
// What the lattice deliberately does not track: aliases parked in struct
// fields (a graph slice stored into a field and mutated through another
// method later) and flows through interface calls. Those escapes are what
// the graphguard runtime sanitizer exists for (internal/graph, build tag
// graphguard): the static rule proves the common paths, the trial-boundary
// checksum catches the rest.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// origin is the aliasing lattice element: which tracked memory an expression
// may alias. The top bit marks "derived from *graph.Graph CSR arrays"; lower
// bits mark "derived from parameter i" (receiver = parameter 0 for methods).
type origin uint64

const originGraph origin = 1 << 63

// maxTrackedParams bounds the per-parameter bits (bit 63 is the graph bit).
const maxTrackedParams = 62

func paramBit(i int) origin {
	if i < 0 || i >= maxTrackedParams {
		return 0
	}
	return origin(1) << uint(i)
}

// graphAccessorSeeds is the aliasing seed list: the graph.Graph accessor
// methods whose results alias CSR backing memory. Any new Graph accessor
// that returns backing arrays must be registered here, or stores through its
// result become invisible to the graph-mutation rule (CONTRIBUTING.md).
var graphAccessorSeeds = map[string]bool{
	"OutNeighbors":  true,
	"InNeighbors":   true,
	"OutWeights":    true,
	"InWeights":     true,
	"RawOut":        true,
	"RawIn":         true,
	"RawOutWeights": true,
	"RawInWeights":  true,
}

// StoreSite is one store through tracked (graph- or parameter-derived)
// memory.
type StoreSite struct {
	Pos token.Pos
	// What names the store shape: "element store", "copy destination",
	// "sort.Slice", "append into backing array", ...
	What string
	// Via names the callee for stores reached through a call site — the
	// function passed tracked memory to a callee that stores through the
	// corresponding parameter. Empty for direct stores.
	Via FuncID
}

// writeFacts is the per-function write-set summary the fixpoint iterates.
type writeFacts struct {
	// graphStores are stores through graph-derived memory: direct sites plus
	// call sites handing graph-derived values to a param-storing callee.
	graphStores []StoreSite
	// paramStores maps parameter index (receiver first) to stores through
	// memory derived from that parameter.
	paramStores map[int][]StoreSite
	// retOrigins records, per result index, what the returned value may
	// alias — how graph memory escapes through return values.
	retOrigins []origin
}

// wsFunc pairs one function declaration with its identity for the fixpoint.
type wsFunc struct {
	pkg *Package
	fd  *ast.FuncDecl
	id  FuncID
	fn  *types.Func
}

// fixWriteSets runs the module-wide write-set fixpoint. Functions declared
// in a package named "graph" are skipped entirely: the substrate's own
// builder/relabel/symmetrize code writes CSR arrays by design, and calls
// into it are equally sanctioned.
func (p *Program) fixWriteSets(pkgs []*Package) {
	p.writes = map[FuncID]*writeFacts{}
	var fns []wsFunc
	for _, pkg := range pkgs {
		if lastSegment(pkg.Path) == "graph" {
			continue
		}
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fns = append(fns, wsFunc{pkg: pkg, fd: fd, id: FuncID(obj.FullName()), fn: obj})
			}
		}
	}
	// Summaries only grow, so iterate to a fixpoint; the call-chain depth
	// bounds the useful round count and the cap is a safety net.
	for round := 0; round < 32; round++ {
		changed := false
		for _, fn := range fns {
			if p.analyzeWrites(fn) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// newOriginWalker builds the per-function aliasing state (parameter bits
// plus the local-aliasing fixpoint) shared by the write-set pass and ad-hoc
// origin queries. Returns nil for bodiless or signature-less functions.
func (p *Program) newOriginWalker(pkg *Package, fn *types.Func, fd *ast.FuncDecl) *wsWalker {
	if fd == nil || fd.Body == nil {
		return nil
	}
	w := &wsWalker{
		prog:   p,
		pkg:    pkg,
		params: map[*types.Var]int{},
		locals: map[*types.Var]origin{},
		facts:  &writeFacts{paramStores: map[int][]StoreSite{}},
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	idx := 0
	if r := sig.Recv(); r != nil {
		w.params[r] = 0
		idx = 1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		w.params[sig.Params().At(i)] = idx
		idx++
	}
	w.facts.retOrigins = make([]origin, sig.Results().Len())

	// Local aliasing fixpoint: assignments only union origins into locals,
	// so repeating the walk until nothing moves handles any statement order.
	for {
		w.changedLocals = false
		ast.Inspect(fd.Body, w.visitAssign)
		if !w.changedLocals {
			break
		}
	}
	return w
}

// ExprAliasesGraph reports whether the expression, evaluated inside fd, may
// alias CSR graph backing memory under the origin lattice — the perf rules
// use it to note that a slice's length is loop-invariant because shared
// graphs are immutable (see graphmutation.go).
func (p *Program) ExprAliasesGraph(pkg *Package, fn *types.Func, fd *ast.FuncDecl, e ast.Expr) bool {
	if p.writes == nil || fn == nil {
		return false
	}
	w := p.newOriginWalker(pkg, fn, fd)
	return w != nil && w.exprOrigin(e)&originGraph != 0
}

// analyzeWrites recomputes one function's write facts against the current
// global state and reports whether the facts other functions consume
// (paramStores, retOrigins) changed.
func (p *Program) analyzeWrites(f wsFunc) bool {
	w := p.newOriginWalker(f.pkg, f.fn, f.fd)
	if w == nil {
		return false
	}
	w.collectStores(f.fd.Body)

	old := p.writes[f.id]
	p.writes[f.id] = w.facts
	return !sameWriteFacts(old, w.facts)
}

// sameWriteFacts compares the cross-function-visible parts of two summaries
// (retOrigins and paramStores sizes; both grow monotonically).
func sameWriteFacts(old, cur *writeFacts) bool {
	if old == nil {
		empty := len(cur.paramStores) == 0
		for _, o := range cur.retOrigins {
			if o != 0 {
				empty = false
			}
		}
		return empty
	}
	if !slices.Equal(old.retOrigins, cur.retOrigins) {
		return false
	}
	if len(old.paramStores) != len(cur.paramStores) {
		return false
	}
	for i, sites := range cur.paramStores {
		if len(old.paramStores[i]) != len(sites) {
			return false
		}
	}
	return true
}

// wsWalker carries the per-function analysis state.
type wsWalker struct {
	prog *Program
	pkg  *Package
	// params maps parameter objects (receiver first) to their bit index.
	params map[*types.Var]int
	// locals accumulates origins of local variables (including origins a
	// reassigned parameter variable picks up).
	locals        map[*types.Var]origin
	changedLocals bool
	facts         *writeFacts
}

// visitAssign unions right-hand-side origins into assigned locals.
func (w *wsWalker) visitAssign(n ast.Node) bool {
	switch t := n.(type) {
	case *ast.AssignStmt:
		if len(t.Lhs) > 1 && len(t.Rhs) == 1 {
			if call, ok := ast.Unparen(t.Rhs[0]).(*ast.CallExpr); ok {
				for i, lhs := range t.Lhs {
					w.bindLocal(lhs, w.callOrigin(call, i))
				}
				return true
			}
		}
		for i, lhs := range t.Lhs {
			if i < len(t.Rhs) {
				w.bindLocal(lhs, w.exprOrigin(t.Rhs[i]))
			}
		}
	case *ast.ValueSpec:
		if len(t.Names) > 1 && len(t.Values) == 1 {
			if call, ok := ast.Unparen(t.Values[0]).(*ast.CallExpr); ok {
				for i, name := range t.Names {
					w.bindIdent(name, w.callOrigin(call, i))
				}
				return true
			}
		}
		for i, name := range t.Names {
			if i < len(t.Values) {
				w.bindIdent(name, w.exprOrigin(t.Values[i]))
			}
		}
	}
	return true
}

func (w *wsWalker) bindLocal(lhs ast.Expr, o origin) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		w.bindIdent(id, o)
	}
}

func (w *wsWalker) bindIdent(id *ast.Ident, o origin) {
	if o == 0 {
		return
	}
	v, ok := w.pkg.Info.Defs[id].(*types.Var)
	if !ok {
		if v, ok = w.pkg.Info.Uses[id].(*types.Var); !ok {
			return
		}
	}
	if w.locals[v]&o != o {
		w.locals[v] |= o
		w.changedLocals = true
	}
}

// collectStores records every store through tracked memory, walking with an
// ancestor stack so returns inside nested function literals are not
// attributed to the outer function's results.
func (w *wsWalker) collectStores(body *ast.BlockStmt) {
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range t.Lhs {
				w.storeThrough(lhs)
			}
		case *ast.IncDecStmt:
			w.storeThrough(t.X)
		case *ast.CallExpr:
			w.visitCallStores(t)
		case *ast.ReturnStmt:
			if !underFuncLit(stack) {
				w.visitReturn(t)
			}
		}
		return true
	})
}

// storeThrough records lhs as a store when the memory it writes into is
// tracked: x[i] = v, *p = v, p.f = v with a tracked base.
func (w *wsWalker) storeThrough(lhs ast.Expr) {
	switch t := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		w.recordStore(w.exprOrigin(t.X), "element store", t.Pos(), "")
	case *ast.StarExpr:
		w.recordStore(w.exprOrigin(t.X), "pointer store", t.Pos(), "")
	case *ast.SelectorExpr:
		if v, ok := w.pkg.Info.Uses[t.Sel].(*types.Var); ok && v.IsField() {
			w.recordStore(w.exprOrigin(t.X), "field store", t.Pos(), "")
		}
	}
}

// visitReturn unions returned origins into the function's result summary.
func (w *wsWalker) visitReturn(ret *ast.ReturnStmt) {
	if len(ret.Results) == 1 && len(w.facts.retOrigins) > 1 {
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			for i := range w.facts.retOrigins {
				w.facts.retOrigins[i] |= w.callOrigin(call, i)
			}
			return
		}
	}
	for i, r := range ret.Results {
		if i < len(w.facts.retOrigins) {
			w.facts.retOrigins[i] |= w.exprOrigin(r)
		}
	}
}

// visitCallStores handles the call-shaped stores: mutating builtins, the
// in-place stdlib sorters, and module callees that store through a
// parameter the caller binds to tracked memory.
func (w *wsWalker) visitCallStores(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := w.pkg.Info.Uses[id]; obj != nil && obj.Parent() == types.Universe {
			if len(call.Args) == 0 {
				return
			}
			// copy writes through its destination (first argument only: the
			// source is read, so copying *out of* graph memory is fine);
			// append and clear write into their argument's backing array —
			// an accessor sub-slice's capacity extends into the next
			// vertex's adjacency, so appending to one corrupts the CSR.
			switch id.Name {
			case "copy":
				w.recordStore(w.exprOrigin(call.Args[0]), "copy destination", call.Pos(), "")
			case "append":
				w.recordStore(w.exprOrigin(call.Args[0]), "append into backing array", call.Pos(), "")
			case "clear":
				w.recordStore(w.exprOrigin(call.Args[0]), "clear", call.Pos(), "")
			}
			return
		}
	}
	if name, ok := mutatingStdlibCall(w.pkg, call); ok && len(call.Args) > 0 {
		w.recordStore(w.exprOrigin(call.Args[0]), name, call.Pos(), "")
		return
	}
	fn := moduleFunc(w.pkg, call.Fun)
	if fn == nil {
		return
	}
	wf := w.prog.writes[FuncID(fn.FullName())]
	if wf == nil || len(wf.paramStores) == 0 {
		return
	}
	idxs := make([]int, 0, len(wf.paramStores))
	for i := range wf.paramStores {
		idxs = append(idxs, i)
	}
	slices.Sort(idxs)
	for _, pi := range idxs {
		if ae := argForParam(call, fn, pi); ae != nil {
			w.recordStore(w.exprOrigin(ae), "argument store", call.Pos(), FuncID(fn.FullName()))
		}
	}
}

// recordStore files one store site under every tracked origin it may write
// through.
func (w *wsWalker) recordStore(o origin, what string, pos token.Pos, via FuncID) {
	if o == 0 {
		return
	}
	site := StoreSite{Pos: pos, What: what, Via: via}
	if o&originGraph != 0 {
		w.facts.graphStores = append(w.facts.graphStores, site)
	}
	for i := 0; i < maxTrackedParams; i++ {
		if o&paramBit(i) != 0 {
			w.facts.paramStores[i] = append(w.facts.paramStores[i], site)
		}
	}
}

// exprOrigin computes what memory e may alias under the current state.
func (w *wsWalker) exprOrigin(e ast.Expr) origin {
	switch t := e.(type) {
	case *ast.ParenExpr:
		return w.exprOrigin(t.X)
	case *ast.Ident:
		v, ok := w.pkg.Info.Uses[t].(*types.Var)
		if !ok {
			if v, ok = w.pkg.Info.Defs[t].(*types.Var); !ok {
				return 0
			}
		}
		o := w.locals[v]
		if i, ok := w.params[v]; ok {
			o |= paramBit(i)
		}
		return o
	case *ast.IndexExpr:
		return w.exprOrigin(t.X)
	case *ast.SliceExpr:
		return w.exprOrigin(t.X)
	case *ast.StarExpr:
		return w.exprOrigin(t.X)
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			return w.exprOrigin(t.X)
		}
	case *ast.SelectorExpr:
		if v, ok := w.pkg.Info.Uses[t.Sel].(*types.Var); ok && v.IsField() {
			return w.exprOrigin(t.X)
		}
	case *ast.CallExpr:
		return w.callOrigin(t, 0)
	}
	return 0
}

// callOrigin computes the origin of result index `result` of a call:
// accessor seeds, slice conversions and append (which alias their operand),
// and module callees whose result summaries map back through the arguments.
func (w *wsWalker) callOrigin(call *ast.CallExpr, result int) origin {
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: slice conversions share backing memory.
		if len(call.Args) == 1 {
			return w.exprOrigin(call.Args[0])
		}
		return 0
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := w.pkg.Info.Uses[id]; obj != nil && obj.Parent() == types.Universe {
			if id.Name == "append" && len(call.Args) > 0 {
				return w.exprOrigin(call.Args[0])
			}
			return 0
		}
	}
	if isGraphAccessorCall(w.pkg, call) {
		return originGraph
	}
	fn := moduleFunc(w.pkg, call.Fun)
	if fn == nil {
		return 0
	}
	wf := w.prog.writes[FuncID(fn.FullName())]
	if wf == nil || result >= len(wf.retOrigins) {
		return 0
	}
	ro := wf.retOrigins[result]
	var o origin
	if ro&originGraph != 0 {
		o |= originGraph
	}
	for i := 0; i < maxTrackedParams; i++ {
		if ro&paramBit(i) != 0 {
			if ae := argForParam(call, fn, i); ae != nil {
				o |= w.exprOrigin(ae)
			}
		}
	}
	return o
}

// isGraphAccessorCall reports whether call invokes one of the registered
// accessor methods on the graph substrate's Graph type.
func isGraphAccessorCall(pkg *Package, call *ast.CallExpr) bool {
	return isGraphMethodCall(pkg, call, graphAccessorSeeds)
}

// isGraphMethodCall reports whether call invokes a method from names on the
// graph package's Graph type.
func isGraphMethodCall(pkg *Package, call *ast.CallExpr, names map[string]bool) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !names[fn.Name()] {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Graph" && lastSegment(named.Obj().Pkg().Path()) == "graph"
}

// argForParam maps callee parameter index i (receiver first for methods)
// back to the caller's argument expression, or nil when it cannot be
// identified (method values, spreads past the argument list).
func argForParam(call *ast.CallExpr, fn *types.Func, i int) ast.Expr {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	if sig.Recv() != nil {
		if i == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		i--
	}
	if i >= 0 && i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}

// mutatingStdlibCall recognizes stdlib calls that reorder or overwrite
// their first argument in place.
func mutatingStdlibCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	switch pn.Imported().Path() {
	case "sort":
		switch sel.Sel.Name {
		case "Slice", "SliceStable", "Sort", "Stable", "Ints", "Float64s", "Strings":
			return "sort." + sel.Sel.Name, true
		}
	case "slices":
		switch sel.Sel.Name {
		case "Sort", "SortFunc", "SortStableFunc", "Reverse":
			return "slices." + sel.Sel.Name, true
		}
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Program API.

// GraphStores returns the function's stores through graph-derived memory —
// direct sites plus call sites that hand graph memory to a param-storing
// callee — in source order.
func (p *Program) GraphStores(id FuncID) []StoreSite {
	if wf := p.writes[id]; wf != nil {
		return wf.graphStores
	}
	return nil
}
