package analysis

// facts.go is the interprocedural layer of the engine: it lowers every
// function of the loaded packages into a flow-light *summary* (calls made,
// shared-state accesses, allocations, I/O, lock acquisitions) and stitches
// the summaries into a module-wide call graph. Rules that need to see across
// function boundaries (atomic-plain-mix, lock-order, alloc-in-timed-region,
// timed-region-purity, cancel-liveness, the -perf rules) query the resulting
// Program instead of re-walking ASTs. It also holds the one copy of each
// traversal helper every rule shares: the ancestry walk (walkStack), the
// under-defer predicate, the "what consumes this function literal" predicate
// (consumer, spawnContext), the direct-I/O catalogue (ioCall), and the two
// call-graph fixpoints (closeOver for boolean facts, fixReach for "earliest
// reaching site").
//
// The engine is deliberately a *summary* dataflow, not an SSA one: facts are
// sets keyed by coarse variable identities, propagated to a fixpoint over
// the call graph. That trades alias precision for a stdlib-only
// implementation that runs in milliseconds over the whole module — the same
// trade the per-function rules already make.
//
// Variable identity (VarKey) is the load-bearing approximation. Three cases:
//
//   - package-level variables: exact (by object);
//   - struct fields: keyed by declaring package + field name + type, so the
//     same field reached through different receiver objects unifies (that is
//     what makes "Bitmap.words is CASed in SetAtomic but read plainly in
//     Get" expressible at all) — lock keys alone add the owning struct type
//     (mutexOp), or every `mu sync.Mutex` of a package would be one lock;
//   - locals and parameters: keyed by package + name + type, so the
//     `parent []int32` a kernel allocates and the `parent []int32` its
//     helper mutates unify across the call, without alias analysis.
//
// The name/type heuristic can conflate two unrelated variables that share a
// name and type inside one package; in this codebase's naming discipline
// that conflation is exactly the intent (dist/parent/comp mean the same
// array everywhere), and //gapvet:ignore remains the escape hatch.

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// FuncID names a function or method uniquely across the module, in the form
// types.Func.FullName produces: "pkg/path.Fn" or "(pkg/path.T).M".
type FuncID string

// VarKey identifies a shared-state candidate across function boundaries;
// see the package comment for the three identity classes.
type VarKey string

// AccessKind classifies one recorded access to a VarKey.
type AccessKind uint8

// Access kinds.
const (
	// AtomicAccess is a read or write made through a sync/atomic function.
	AtomicAccess AccessKind = iota
	// PlainRead is an unsynchronized element/field/variable read.
	PlainRead
	// PlainWrite is an unsynchronized element/field/variable write (or a
	// non-atomic address-taking, treated conservatively as a write).
	PlainWrite
)

// spawnCtx records where in the goroutine-spawning structure a fact was
// collected: lexically inside a `go` statement, and/or inside function
// literals passed as arguments to the listed callees (innermost last). A
// fact is concurrent when any enclosing callee transitively spawns
// goroutines (par.For hands its closure to workers, and so does anything
// built on it).
type spawnCtx struct {
	insideGo bool
	spawners []FuncID
}

// Access is one recorded shared-state touch.
type Access struct {
	Key     VarKey
	Display string // human name for diagnostics ("parent", "Bitmap.words")
	Kind    AccessKind
	Pos     token.Pos
	ctx     spawnCtx
}

// CallSite is one statically resolvable call (or a named function passed to
// a spawning helper, which will be invoked by it).
type CallSite struct {
	Callee FuncID
	Pos    token.Pos
	ctx    spawnCtx
	// held lists the lock keys syntactically held at the call, for the
	// interprocedural half of lock-order.
	held []VarKey
}

// AllocSite is one allocation: a make/new/append builtin call or a function
// literal (closures allocate their capture environment).
type AllocSite struct {
	What string // "make", "new", "append", "func literal"
	Pos  token.Pos
	ctx  spawnCtx
	// immediate marks a func literal that is directly consumed by the
	// enclosing call — passed as an argument or invoked in place (including
	// via go/defer). Such literals are created once per phase or spawn, not
	// per element, and alloc-in-timed-region whitelists them.
	immediate bool
}

// IOSite is one direct I/O call, in the same catalogue the
// timed-region-purity rule uses (log.*, os.*, fmt.Print*/Fprint*,
// print/println builtins).
type IOSite struct {
	What string // "log.Printf", "os.Getenv", "builtin println", ...
	Pos  token.Pos
}

// LockEdge records "from was held while to was acquired" at Pos.
type LockEdge struct {
	From, To               VarKey
	FromDisplay, ToDisplay string
	Pos                    token.Pos
}

// FuncSummary is the per-function fact set the interprocedural rules
// consume.
type FuncSummary struct {
	ID      FuncID
	PkgPath string
	Pkg     *Package
	Name    string // short display name ("tdStep", "(*Bitmap).Set")
	Pos     token.Pos

	Calls    []CallSite
	Accesses []Access
	Allocs   []AllocSite
	IO       []IOSite

	// LockEdges are intra-function acquisition orderings; cross-function
	// edges are derived from Calls[i].held x transitive lock sets.
	LockEdges []LockEdge
	// Locks maps every lock key this function acquires directly to the
	// first acquisition site.
	Locks map[VarKey]token.Pos
	// lockNames maps lock keys to display names.
	lockNames map[VarKey]string

	// spawnsGoDirect is true when the body contains a go statement.
	spawnsGoDirect bool

	// funcFieldStores lists struct fields (by identity key) into which this
	// function stores a func-typed value — a closure parked in a work item,
	// the par.Machine pattern (dispatch stores the region body in
	// region.body and sends the region down the wake channel). If any
	// function that may run on a spawned goroutine invokes such a field, the
	// storer effectively spawns its closures despite containing no
	// syntactic `go`.
	funcFieldStores []VarKey
	// funcFieldCalls lists func-typed struct fields this function invokes
	// (runSlot's r.body(slot)), with the spawn context of each call.
	funcFieldCalls []fieldUse
}

// fieldUse is one invocation of a func-typed struct field.
type fieldUse struct {
	Key VarKey
	ctx spawnCtx
}

// reachFact is a propagated "this function (transitively) performs X" fact:
// the earliest site of the kind that the function reaches (see fixReach).
type reachFact struct {
	What string
	Pos  token.Pos
}

// orEarlier returns the fact for the site at pos when it precedes f's (or f
// is nil), else f.
func (f *reachFact) orEarlier(what string, pos token.Pos) *reachFact {
	if f == nil || pos < f.Pos {
		return &reachFact{What: what, Pos: pos}
	}
	return f
}

// Program is the module-wide fact database: every function summary, the call
// graph they induce, and the fixpoint results interprocedural rules query.
type Program struct {
	Module string
	Funcs  map[FuncID]*FuncSummary
	order  []FuncID // deterministic iteration order

	spawnsGo   map[FuncID]bool // transitively spawns goroutines
	concurrent map[FuncID]bool // may execute on a spawned goroutine
	// concurrentTimed narrows concurrent to goroutines *originating in
	// timed kernel packages* (a go statement or par-style spawner inside
	// gap/par/...). The harness's trial-sandbox goroutine in internal/core
	// wraps an entire kernel invocation for fault isolation; it is the
	// timing context itself, not a parallel hot path, so rules about
	// measured-loop overhead (alloc-in-timed-region) must not treat
	// everything under it as spawned.
	concurrentTimed map[FuncID]bool
	// transIO / transAlloc: the earliest direct-I/O call, and the earliest
	// make/new, each function transitively reaches (nil when none).
	transIO, transAlloc map[FuncID]*reachFact
	transLocks          map[FuncID]map[VarKey]token.Pos
	lockNames           map[VarKey]string
	// writes holds the per-function write-set summaries (writeset.go).
	writes map[FuncID]*writeFacts
	// reachesCancel marks the cancellation polls (isCancelPoll) and every
	// function whose transitive call set contains one.
	reachesCancel map[FuncID]bool
}

// BuildProgram summarizes every non-test function of the packages and runs
// the call-graph fixpoints. Test files are excluded throughout: they are
// harness, not timed or concurrent kernel code.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{Funcs: map[FuncID]*FuncSummary{}, lockNames: map[VarKey]string{}}
	if len(pkgs) > 0 {
		p.Module = pkgs[0].Module
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				s := summarize(pkg, fd)
				if s != nil {
					p.Funcs[s.ID] = s
					for k, n := range s.lockNames {
						p.lockNames[k] = n
					}
				}
			}
		}
	}
	p.order = make([]FuncID, 0, len(p.Funcs))
	for id := range p.Funcs {
		p.order = append(p.order, id)
	}
	slices.Sort(p.order)

	p.fixSpawnsGo()
	p.fixConcurrent()
	// Field-based spawn propagation: closures that reach pool goroutines
	// through data (stored in a struct field a spawned worker loop invokes,
	// the par.Machine wake-channel pattern) spawn no goroutine syntactically,
	// so the call-graph fixpoints alone cannot see them. Each round may
	// promote new spawners, which in turn widens the concurrent set, which
	// may make more field invocations hot — iterate the joint fixpoint.
	for p.propagateFieldSpawns() {
		p.fixSpawnsGo()
		p.fixConcurrent()
	}
	p.fixConcurrentTimed()
	p.fixReachesCancel()
	p.transIO = p.fixReach(func(s *FuncSummary) (best *reachFact) {
		for _, io := range s.IO {
			best = best.orEarlier(io.What, io.Pos)
		}
		return best
	})
	// Only make and new propagate across calls (append and closure creation
	// are too pervasive to chase transitively without drowning the signal);
	// all four count at the direct site.
	p.transAlloc = p.fixReach(func(s *FuncSummary) (best *reachFact) {
		for _, a := range s.Allocs {
			if a.What == "make" || a.What == "new" {
				best = best.orEarlier(a.What, a.Pos)
			}
		}
		return best
	})
	p.fixTransLocks()
	p.fixWriteSets(pkgs)
	return p
}

// isCancelPoll reports whether the callee is a cancellation poll: any method
// named Cancelled (par.CancelToken) or Interrupted
// (par.Machine). Matching on the method name keeps fixtures free to supply
// their own token types.
func isCancelPoll(id FuncID) bool {
	return strings.HasSuffix(string(id), ".Cancelled") || strings.HasSuffix(string(id), ".Interrupted")
}

// fixReachesCancel seeds reachesCancel with the polls the module calls and
// closes it over callers.
func (p *Program) fixReachesCancel() {
	p.reachesCancel = map[FuncID]bool{}
	for _, id := range p.order {
		for _, c := range p.Funcs[id].Calls {
			if isCancelPoll(c.Callee) {
				p.reachesCancel[c.Callee] = true
			}
		}
	}
	p.closeOver(p.reachesCancel, true)
}

// ---------------------------------------------------------------------------
// Summarization: one walk per function.

// summarize lowers one function declaration into a FuncSummary.
func summarize(pkg *Package, fd *ast.FuncDecl) *FuncSummary {
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return nil // broken fixture code; nothing to anchor facts to
	}
	s := &FuncSummary{
		ID:        FuncID(obj.FullName()),
		PkgPath:   pkg.Path,
		Pkg:       pkg,
		Name:      displayFuncName(obj),
		Pos:       fd.Pos(),
		Locks:     map[VarKey]token.Pos{},
		lockNames: map[VarKey]string{},
	}
	b := &summaryBuilder{pkg: pkg, s: s, skipPlain: map[ast.Expr]bool{}}
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		b.visit(n, stack)
		return true
	})
	return s
}

// summaryBuilder carries the traversal state for one function.
type summaryBuilder struct {
	pkg *Package
	s   *FuncSummary

	// held is the stack of lock keys syntactically held at the current
	// point of the (source-ordered) traversal.
	held []VarKey
	// skipPlain marks &x operands consumed by sync/atomic calls so the
	// generic access pass does not double-count them as plain writes.
	skipPlain map[ast.Expr]bool
}

// visit records the facts observable at one node.
func (b *summaryBuilder) visit(node ast.Node, stack []ast.Node) {
	switch n := node.(type) {
	case *ast.GoStmt:
		b.s.spawnsGoDirect = true
	case *ast.CallExpr:
		b.visitCall(n, stack)
	case *ast.FuncLit:
		// The literal itself allocates its capture environment where it is
		// created; its body is walked with the literal on the stack, so
		// facts inside it pick up the spawn context.
		call, _ := consumer(n, stack)
		b.s.Allocs = append(b.s.Allocs, AllocSite{What: "func literal", Pos: n.Pos(),
			ctx: spawnContext(b.pkg, stack), immediate: call != nil})
	case *ast.IndexExpr:
		b.visitAccess(n, n.X, stack)
	case *ast.SelectorExpr:
		// Field selections only; package selectors and method values are
		// not state accesses.
		if v, ok := b.pkg.Info.Uses[n.Sel].(*types.Var); ok && v.IsField() {
			b.visitFieldAccess(n, v, stack)
		}
	case *ast.KeyValueExpr:
		// Struct-literal field initialization with a func-typed value
		// (&region{body: body, ...}): a closure parked in a work item.
		if id, ok := n.Key.(*ast.Ident); ok {
			b.recordFuncFieldStore(id)
		}
	case *ast.AssignStmt:
		// Field assignment with a func-typed value (r.body = fn).
		for _, lhs := range n.Lhs {
			if sel, ok := lhs.(*ast.SelectorExpr); ok {
				b.recordFuncFieldStore(sel.Sel)
			}
		}
	case *ast.Ident:
		// Bare package-level variable reads/writes (locals are only
		// interesting through index/selector expressions, which the cases
		// above catch).
		if v, ok := b.pkg.Info.Uses[n].(*types.Var); ok && !v.IsField() && isPackageLevel(v) {
			if key, disp, ok := b.rootKey(n); ok {
				b.recordAccess(key, disp, n, stack)
			}
		}
	}
}

// recordFuncFieldStore records a store into a func-typed struct field when
// id resolves to one (map-literal keys and ordinary fields fall out on the
// IsField / Signature checks).
func (b *summaryBuilder) recordFuncFieldStore(id *ast.Ident) {
	v, ok := b.pkg.Info.Uses[id].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	if _, isFunc := v.Type().Underlying().(*types.Signature); !isFunc {
		return
	}
	key, _ := fieldKey(v)
	b.s.funcFieldStores = append(b.s.funcFieldStores, key)
}

// visitCall handles the call-shaped fact sources: atomic accesses, lock
// acquisitions, I/O, allocations, and call-graph edges.
func (b *summaryBuilder) visitCall(call *ast.CallExpr, stack []ast.Node) {
	info := b.pkg.Info
	ctx := spawnContext(b.pkg, stack)

	// Invocation of a func-typed struct field (runSlot's r.body(slot)): the
	// raw material of the field-based spawn propagation. Recorded and fallen
	// through — a field call resolves to a *types.Var, so none of the other
	// call shapes below can also match it.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				key, _ := fieldKey(v)
				b.s.funcFieldCalls = append(b.s.funcFieldCalls, fieldUse{Key: key, ctx: ctx})
			}
		}
	}

	// sync/atomic calls: the &target operand is an atomic access, not a
	// plain one.
	if target, ok := atomicCallTarget(info, call); ok {
		b.skipPlain[target] = true
		if inner, ok := target.(*ast.UnaryExpr); ok && inner.Op == token.AND {
			if key, disp, ok2 := b.rootKey(inner.X); ok2 {
				b.s.Accesses = append(b.s.Accesses, Access{Key: key, Display: disp, Kind: AtomicAccess, Pos: call.Pos(), ctx: ctx})
			}
			b.markSkipped(inner.X)
		}
		return
	}

	// Mutex Lock/Unlock tracking (syntactic, source order).
	if key, disp, op, ok := mutexOp(b.pkg, call); ok {
		switch op {
		case "Lock", "RLock", "TryLock":
			for _, h := range b.held {
				if h != key {
					b.s.LockEdges = append(b.s.LockEdges, LockEdge{
						From: h, To: key,
						FromDisplay: b.s.lockNames[h], ToDisplay: disp,
						Pos: call.Pos(),
					})
				}
			}
			if _, seen := b.s.Locks[key]; !seen {
				b.s.Locks[key] = call.Pos()
			}
			b.s.lockNames[key] = disp
			if !underDefer(stack) {
				b.held = append(b.held, key)
			}
		case "Unlock", "RUnlock":
			if underDefer(stack) {
				break // deferred release: held to function exit
			}
			for i := len(b.held) - 1; i >= 0; i-- {
				if b.held[i] == key {
					b.held = append(b.held[:i], b.held[i+1:]...)
					break
				}
			}
		}
		return
	}

	// Direct I/O (the catalogue timed-region-purity reports from).
	if what, ok := ioCall(b.pkg, call); ok {
		b.s.IO = append(b.s.IO, IOSite{What: what, Pos: call.Pos()})
		return
	}

	// Allocation builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil && obj.Parent() == types.Universe {
			switch id.Name {
			case "make", "new", "append":
				b.s.Allocs = append(b.s.Allocs, AllocSite{What: id.Name, Pos: call.Pos(), ctx: ctx})
			}
			return
		}
	}

	// Call-graph edge to a statically resolvable module function.
	if callee, ok := calleeOf(b.pkg, call); ok {
		b.s.Calls = append(b.s.Calls, CallSite{
			Callee: callee, Pos: call.Pos(), ctx: ctx,
			held: append([]VarKey(nil), b.held...),
		})
	}
	// Named module functions passed as arguments will be invoked by the
	// callee; record them as edges too (the spawn context is resolved during
	// the concurrency fixpoint via the receiving callee).
	for _, arg := range call.Args {
		if fn, ok := funcValueOf(b.pkg, arg); ok {
			argCtx := ctx
			if callee, ok2 := calleeOf(b.pkg, call); ok2 {
				argCtx.spawners = append(append([]FuncID(nil), ctx.spawners...), callee)
			}
			b.s.Calls = append(b.s.Calls, CallSite{Callee: fn, Pos: arg.Pos(), ctx: argCtx})
		}
	}
}

// visitAccess records a plain element access rooted at base (an IndexExpr's
// X), unless it was consumed by an atomic call.
func (b *summaryBuilder) visitAccess(n ast.Expr, base ast.Expr, stack []ast.Node) {
	if b.skipPlain[n] {
		return
	}
	key, disp, ok := b.rootKey(base)
	if !ok {
		return
	}
	b.recordAccess(key, disp, n, stack)
}

// visitFieldAccess records a plain struct-field access.
func (b *summaryBuilder) visitFieldAccess(n *ast.SelectorExpr, v *types.Var, stack []ast.Node) {
	if b.skipPlain[n] {
		return
	}
	key, disp := fieldKey(v)
	b.recordAccess(key, disp, n, stack)
}

// recordAccess classifies an access expression as read or write from its
// ancestor context and records it.
func (b *summaryBuilder) recordAccess(key VarKey, disp string, e ast.Expr, stack []ast.Node) {
	kind := PlainRead
	if isWriteContext(e, stack) {
		kind = PlainWrite
	}
	b.s.Accesses = append(b.s.Accesses, Access{Key: key, Display: disp, Kind: kind, Pos: e.Pos(), ctx: spawnContext(b.pkg, stack)})
}

// markSkipped suppresses plain-access recording for e and its nested
// index/selector spine (the atomic pass already owns it).
func (b *summaryBuilder) markSkipped(e ast.Expr) {
	for {
		b.skipPlain[e] = true
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return
		}
	}
}

// walkStack is the package's one ancestry walk: ast.Inspect handing every
// node its ancestors (outermost first, the node itself excluded). Returning
// false from visit prunes the node's subtree.
func walkStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if !visit(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// underDefer reports whether the ancestor stack passes through a defer
// statement (directly or inside a deferred function literal).
func underDefer(stack []ast.Node) bool {
	return slices.ContainsFunc(stack, func(n ast.Node) bool { _, ok := n.(*ast.DeferStmt); return ok })
}

// underFuncLit reports whether the ancestor stack passes through a function
// literal.
func underFuncLit(stack []ast.Node) bool {
	return slices.ContainsFunc(stack, func(n ast.Node) bool { _, ok := n.(*ast.FuncLit); return ok })
}

// consumer returns the call that directly consumes function literal lit
// (whose ancestors are stack): the call it is an argument of (asArg), or the
// call that invokes it in place (func(){}(), go func(){}()). A nil call means
// the literal is stored — assigned, appended, returned. Every "is this
// closure handed to a spawner" question in the package is this plus a look
// at the callee.
func consumer(lit ast.Node, stack []ast.Node) (call *ast.CallExpr, asArg bool) {
	if len(stack) == 0 {
		return nil, false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	if slices.ContainsFunc(call.Args, func(a ast.Expr) bool { return a == lit }) {
		return call, true
	}
	if call.Fun == lit {
		return call, false
	}
	return nil, false
}

// spawnContext derives the goroutine-spawning context of a node from its
// ancestor stack: enclosing go statements, and the module callees that
// enclosing function literals are handed to.
func spawnContext(pkg *Package, stack []ast.Node) spawnCtx {
	var ctx spawnCtx
	for i, n := range stack {
		switch n.(type) {
		case *ast.GoStmt:
			ctx.insideGo = true
		case *ast.FuncLit:
			if call, asArg := consumer(n, stack[:i]); asArg {
				if callee, ok := calleeOf(pkg, call); ok {
					ctx.spawners = append(ctx.spawners, callee)
				}
			}
		}
	}
	return ctx
}

// ---------------------------------------------------------------------------
// Identity helpers.

// rootKey resolves the root variable of an lvalue-ish expression to a
// VarKey plus a display name.
func (b *summaryBuilder) rootKey(e ast.Expr) (VarKey, string, bool) {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			if v, ok := b.pkg.Info.Uses[t.Sel].(*types.Var); ok {
				if v.IsField() {
					k, d := fieldKey(v)
					return k, d, true
				}
				if isPackageLevel(v) {
					return VarKey("pkgvar:" + v.Pkg().Path() + "." + v.Name()), v.Name(), true
				}
			}
			return "", "", false
		case *ast.Ident:
			v, ok := b.pkg.Info.Uses[t].(*types.Var)
			if !ok {
				if v, ok = b.pkg.Info.Defs[t].(*types.Var); !ok {
					return "", "", false
				}
			}
			if v.IsField() {
				k, d := fieldKey(v)
				return k, d, true
			}
			if isPackageLevel(v) {
				return VarKey("pkgvar:" + v.Pkg().Path() + "." + v.Name()), v.Name(), true
			}
			// Local or parameter: name+type identity within the package.
			return VarKey("local:" + b.pkg.Path + ":" + v.Name() + ":" + types.TypeString(v.Type(), nil)), v.Name(), true
		default:
			return "", "", false
		}
	}
}

// fieldKey keys a struct field by declaring package, name, and type.
func fieldKey(v *types.Var) (VarKey, string) {
	pkgPath := ""
	if v.Pkg() != nil {
		pkgPath = v.Pkg().Path()
	}
	return VarKey("field:" + pkgPath + "." + v.Name() + ":" + types.TypeString(v.Type(), nil)),
		lastSegment(pkgPath) + "." + v.Name()
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isWriteContext reports whether e (with the given ancestor stack) is
// written: assignment LHS, ++/--, range assignment target, or non-atomic
// address-taking (conservatively a write).
func isWriteContext(e ast.Expr, stack []ast.Node) bool {
	child := ast.Node(e)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			child = p
			continue
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == child {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == child
		case *ast.RangeStmt:
			return p.Key == child || p.Value == child
		case *ast.UnaryExpr:
			return p.Op == token.AND && p.X == child
		default:
			return false
		}
	}
	return false
}

// atomicCallTarget reports whether call is a sync/atomic package function
// and returns its pointer argument expression.
func atomicCallTarget(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, true
	}
	return call.Args[0], true
}

// mutexOp reports whether call locks or unlocks a sync.Mutex/RWMutex and
// returns the lock's key, display name, and the method name.
func mutexOp(pkg *Package, call *ast.CallExpr) (VarKey, string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "Unlock", "RUnlock":
	default:
		return "", "", "", false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", "", false
	}
	b := &summaryBuilder{pkg: pkg}
	key, disp, ok := b.rootKey(sel.X)
	if !ok {
		return "", "", "", false
	}
	// A mutex that is a struct field is one lock per owning type: fieldKey
	// alone would merge every `mu sync.Mutex` of a package into one lock
	// (atomic-plain-mix wants that unification; lock-order must not have it).
	if f, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if tv, ok := pkg.Info.Types[f.X]; ok && tv.Type != nil {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			owner := types.TypeString(t, func(p *types.Package) string { return lastSegment(p.Path()) })
			key += VarKey("@" + owner)
			disp = owner + "." + f.Sel.Name
		}
	}
	return key, disp, sel.Sel.Name, true
}

// ioCall is the direct-I/O catalogue: every call into package log or os
// (methods on their package variables included: os.Stderr.WriteString), the
// printing functions of fmt (Print*, Fprint*), and the print/println
// builtins. Pure formatting (fmt.Sprintf, fmt.Errorf) is not I/O. Returns a
// display name.
func ioCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj := pkg.Info.Uses[fun]; obj != nil && obj.Parent() == types.Universe &&
			(fun.Name == "print" || fun.Name == "println") {
			return "builtin " + fun.Name, true
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		x := fun.X
		if v, ok := x.(*ast.SelectorExpr); ok {
			// A method on a package variable: os.Stderr.WriteString(...).
			name, x = v.Sel.Name+"."+name, v.X
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return "", false
		}
		pn, ok := pkg.Info.Uses[id].(*types.PkgName)
		if !ok {
			return "", false
		}
		switch pn.Imported().Path() {
		case "log":
			return "log." + name, true
		case "os":
			return "os." + name, true
		case "fmt":
			if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
				return "fmt." + name, true
			}
		}
	}
	return "", false
}

// calleeOf resolves a call to a module-internal named function or method.
func calleeOf(pkg *Package, call *ast.CallExpr) (FuncID, bool) {
	return funcValueOf(pkg, call.Fun)
}

// funcValueOf resolves an expression to the module function it names: a
// call's target, or a named function passed as an argument.
func funcValueOf(pkg *Package, e ast.Expr) (FuncID, bool) {
	if fn := moduleFunc(pkg, e); fn != nil {
		return FuncID(fn.FullName()), true
	}
	return "", false
}

// moduleFunc is the typed form of funcValueOf, for rules that need the
// signature.
func moduleFunc(pkg *Package, e ast.Expr) *types.Func {
	var obj types.Object
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[t]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[t.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !inModule(fn.Pkg().Path(), pkg.Module) {
		return nil
	}
	return fn
}

// inModule reports whether path is the module or a package below it.
func inModule(path, module string) bool {
	return module != "" && (path == module || strings.HasPrefix(path, module+"/"))
}

// displayFuncName renders a short human name for diagnostics: "Fn",
// "(*T).M", qualified with the package's last path segment when the call
// crosses packages (done at message-format time).
func displayFuncName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		return "(" + types.TypeString(t, func(p *types.Package) string { return "" }) + ")." + fn.Name()
	}
	return fn.Name()
}

// ---------------------------------------------------------------------------
// Fixpoints.

// closeOver grows set to its closure over the call graph — the one boolean
// fixpoint. With up set, a function joins when one of its callees is a member
// ("transitively reaches a member"); otherwise every callee of a member joins
// ("reachable from a member").
func (p *Program) closeOver(set map[FuncID]bool, up bool) {
	for changed := true; changed; {
		changed = false
		for _, id := range p.order {
			for _, c := range p.Funcs[id].Calls {
				from, to := id, c.Callee
				if up {
					from, to = to, from
				}
				if set[from] && !set[to] {
					set[to] = true
					changed = true
				}
			}
		}
	}
}

// fixSpawnsGo computes which functions transitively spawn goroutines. On
// re-runs (after propagateFieldSpawns promoted data-flow spawners) the
// existing entries are kept and only the call-graph closure is re-taken.
func (p *Program) fixSpawnsGo() {
	if p.spawnsGo == nil {
		p.spawnsGo = map[FuncID]bool{}
		for _, id := range p.order {
			if p.Funcs[id].spawnsGoDirect {
				p.spawnsGo[id] = true
			}
		}
	}
	p.closeOver(p.spawnsGo, true)
}

// SpawnsGo reports whether the function transitively spawns goroutines.
func (p *Program) SpawnsGo(id FuncID) bool { return p.spawnsGo[id] }

// propagateFieldSpawns handles spawning that flows through data instead of
// the call graph: a closure stored into a func-typed struct field and
// invoked by a goroutine the storer never syntactically calls. The concrete
// instance is par.Machine — dispatch parks the region body in region.body
// and publishes the region on the wake channel; pool workers (spawned once,
// in NewMachine) receive it and call r.body via runSlot. A func-typed field
// is *hot* when any function that may run on a spawned goroutine invokes
// it; a function storing a closure into a hot field then counts as a
// spawner, exactly as if it handed the closure to par.For. Reports whether
// any new spawner was promoted (the caller then re-closes the call-graph
// fixpoints and retries until nothing changes).
func (p *Program) propagateFieldSpawns() bool {
	hot := map[VarKey]bool{}
	for _, id := range p.order {
		for _, u := range p.Funcs[id].funcFieldCalls {
			if p.concurrent[id] || p.concurrentCtx(u.ctx) {
				hot[u.Key] = true
			}
		}
	}
	changed := false
	for _, id := range p.order {
		if p.spawnsGo[id] {
			continue
		}
		for _, key := range p.Funcs[id].funcFieldStores {
			if hot[key] {
				p.spawnsGo[id] = true
				changed = true
				break
			}
		}
	}
	return changed
}

// concurrentCtx reports whether facts collected under ctx may execute on a
// spawned goroutine.
func (p *Program) concurrentCtx(ctx spawnCtx) bool {
	return ctx.insideGo || slices.ContainsFunc(ctx.spawners, p.SpawnsGo)
}

// calledUnder returns the functions called from a context that spawned
// admits, or called (transitively) by such a function.
func (p *Program) calledUnder(spawned func(owner *FuncSummary, ctx spawnCtx) bool) map[FuncID]bool {
	set := map[FuncID]bool{}
	for _, id := range p.order {
		owner := p.Funcs[id]
		for _, c := range owner.Calls {
			if spawned(owner, c.ctx) {
				set[c.Callee] = true
			}
		}
	}
	p.closeOver(set, false)
	return set
}

// fixConcurrent computes the set of functions that may execute on a spawned
// goroutine.
func (p *Program) fixConcurrent() {
	p.concurrent = p.calledUnder(func(_ *FuncSummary, ctx spawnCtx) bool { return p.concurrentCtx(ctx) })
}

// ConcurrentFunc reports whether the function may run on a spawned
// goroutine.
func (p *Program) ConcurrentFunc(id FuncID) bool { return p.concurrent[id] }

// timedSpawnCtx reports whether facts collected under ctx may execute on a
// goroutine whose spawn originates in a timed kernel package: a `go`
// statement lexically inside a timed-package function (owner), or a closure
// handed to a goroutine-spawning callee that itself lives in a timed
// package (par.For and friends). A goroutine spawned by harness code —
// internal/core's per-trial sandbox — does not qualify: it carries exactly
// one kernel invocation and is the measurement context, not a worker.
func (p *Program) timedSpawnCtx(owner *FuncSummary, ctx spawnCtx) bool {
	if ctx.insideGo && hasRole(owner.PkgPath, roleTimed) {
		return true
	}
	return slices.ContainsFunc(ctx.spawners, func(s FuncID) bool {
		sum := p.Funcs[s]
		return p.spawnsGo[s] && sum != nil && hasRole(sum.PkgPath, roleTimed)
	})
}

// fixConcurrentTimed mirrors fixConcurrent but seeds only from spawn sites
// that timedSpawnCtx accepts. Run after the joint spawnsGo/concurrent
// fixpoint so field-promoted spawners (par.Machine's dispatch) are already
// visible.
func (p *Program) fixConcurrentTimed() {
	p.concurrentTimed = p.calledUnder(p.timedSpawnCtx)
}

// fixReach is the one "earliest reaching site" fixpoint: direct yields a
// function's own earliest site of some kind (or nil), and the result maps
// every function to the earliest such site it transitively reaches — smallest
// position, for determinism.
func (p *Program) fixReach(direct func(*FuncSummary) *reachFact) map[FuncID]*reachFact {
	reach := map[FuncID]*reachFact{}
	for _, id := range p.order {
		if f := direct(p.Funcs[id]); f != nil {
			reach[id] = f
		}
	}
	for changed := true; changed; {
		changed = false
		for _, id := range p.order {
			for _, c := range p.Funcs[id].Calls {
				if f := reach[c.Callee]; f != nil && (reach[id] == nil || f.Pos < reach[id].Pos) {
					reach[id] = f
					changed = true
				}
			}
		}
	}
	return reach
}

// fixTransLocks propagates "may acquire lock K" sets up the call graph.
func (p *Program) fixTransLocks() {
	p.transLocks = map[FuncID]map[VarKey]token.Pos{}
	for _, id := range p.order {
		m := map[VarKey]token.Pos{}
		for k, pos := range p.Funcs[id].Locks {
			m[k] = pos
		}
		p.transLocks[id] = m
	}
	for changed := true; changed; {
		changed = false
		for _, id := range p.order {
			m := p.transLocks[id]
			for _, c := range p.Funcs[id].Calls {
				for k, pos := range p.transLocks[c.Callee] {
					if _, ok := m[k]; !ok {
						m[k] = pos
						changed = true
					}
				}
			}
		}
	}
}

// AllLockEdges assembles the module-wide lock acquisition graph: direct
// intra-function edges plus edges induced by calls made while holding a
// lock into functions that (transitively) acquire another.
func (p *Program) AllLockEdges() []LockEdge {
	var edges []LockEdge
	for _, id := range p.order {
		s := p.Funcs[id]
		edges = append(edges, s.LockEdges...)
		for _, c := range s.Calls {
			if len(c.held) == 0 {
				continue
			}
			for k := range p.transLocks[c.Callee] {
				for _, h := range c.held {
					if h == k {
						continue
					}
					edges = append(edges, LockEdge{
						From: h, To: k,
						FromDisplay: p.lockNames[h], ToDisplay: p.lockNames[k],
						Pos: c.Pos,
					})
				}
			}
		}
	}
	slices.SortFunc(edges, func(a, b LockEdge) int {
		if c := cmp.Compare(a.Pos, b.Pos); c != 0 {
			return c
		}
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	return edges
}

// FuncsIn returns the summaries of the package's functions, in source
// order.
func (p *Program) FuncsIn(pkg *Package) []*FuncSummary {
	var out []*FuncSummary
	for _, id := range p.order {
		if s := p.Funcs[id]; s.Pkg == pkg {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b *FuncSummary) int { return cmp.Compare(a.Pos, b.Pos) })
	return out
}

// ShortName renders a FuncID for diagnostics, trimming the module prefix:
// "gapbench/internal/graph.NewBitmap" -> "graph.NewBitmap".
func (p *Program) ShortName(id FuncID) string {
	s := string(id)
	if p.Module != "" {
		s = strings.ReplaceAll(s, p.Module+"/internal/", "")
		s = strings.ReplaceAll(s, p.Module+"/", "")
	}
	return s
}
