package sem

import (
	"fmt"

	"repro/internal/arith"
	"repro/internal/ast"
	"repro/internal/source"
	"repro/internal/types"
)

// Error is a semantic error.
type Error struct {
	Pos source.Pos
	Msg string
}

func (e *Error) Error() string {
	return fmt.Sprintf("error at line %d: %s", e.Pos.Line, e.Msg)
}

// ErrorList collects semantic errors.
type ErrorList []*Error

func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	if len(l) == 1 {
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0].Error(), len(l)-1)
}

// checker holds per-run state.
type checker struct {
	info *Info
	errs ErrorList

	universe *Scope
	global   *Scope

	// curProc is the procedure being checked (nil at module level).
	curProc *Symbol
	// curIterYield is the yield type when checking an iterator body.
	curIterYield types.Type
	// iterandCall marks the call node allowed to target an iterator
	// (the loop iterand being checked).
	iterandCall *ast.CallExpr
	// fieldSyms maps record types to their field symbols, for bringing
	// fields into method scope (implicit this.field access).
	fieldSyms map[*types.RecordType][]*Symbol
	// curScope is the active lexical scope.
	curScope *Scope
	// loopDepth tracks nesting for break/continue validation.
	loopDepth int
	nextID    int
}

// Check analyzes prog and returns the semantic Info. All errors are
// accumulated; Info is usable only when err is nil.
func Check(fset *source.FileSet, prog *ast.Program) (*Info, error) {
	c := &checker{info: newInfo(fset), fieldSyms: make(map[*types.RecordType][]*Symbol)}
	c.universe = NewScope(nil)
	c.declareBuiltins()
	c.global = NewScope(c.universe)
	c.curScope = c.global

	c.collectTypes(prog)
	c.collectProcsAndGlobals(prog)
	c.resolveRecordFields(prog)
	c.checkGlobalInits(prog)
	c.checkProcBodies(prog)
	c.checkTopStmts(prog)

	if len(c.errs) > 0 {
		return c.info, c.errs
	}
	return c.info, nil
}

func (c *checker) errorf(pos source.Pos, format string, args ...any) {
	if len(c.errs) < 50 {
		c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (c *checker) newSymbol(name string, kind SymKind, pos source.Pos) *Symbol {
	s := &Symbol{Name: name, Kind: kind, Pos: pos, ID: c.nextID}
	c.nextID++
	c.info.AllSyms = append(c.info.AllSyms, s)
	return s
}

func (c *checker) declare(sc *Scope, sym *Symbol) {
	if prev := sc.LookupLocal(sym.Name); prev != nil {
		c.errorf(sym.Pos, "%s redeclared (previous declaration at line %d)", sym.Name, prev.Pos.Line)
	}
	sc.Insert(sym)
}

// ------------------------------------------------------------- builtins

var builtinFuncs = []string{
	"writeln", "write", "sqrt", "cbrt", "abs", "min", "max", "exp", "log",
	"sin", "cos", "floor", "ceil", "getCurrentTime", "assert", "exit",
	"halt", "sgn",
}

func (c *checker) declareBuiltins() {
	for _, name := range builtinFuncs {
		s := c.newSymbol(name, SymBuiltin, source.NoPos)
		c.universe.Insert(s)
	}
	// Predeclared values.
	numLoc := c.newSymbol("numLocales", SymVar, source.NoPos)
	numLoc.Type = types.IntType
	numLoc.VarKind = ast.VarConst
	numLoc.Storage = StorageGlobal
	c.universe.Insert(numLoc)

	here := c.newSymbol("here", SymVar, source.NoPos)
	here.Type = types.LocaleType
	here.VarKind = ast.VarConst
	here.Storage = StorageGlobal
	c.universe.Insert(here)

	locales := c.newSymbol("Locales", SymVar, source.NoPos)
	locales.Type = &types.ArrayType{Rank: 1, Elem: types.LocaleType, DomName: "LocaleSpace"}
	locales.VarKind = ast.VarConst
	locales.Storage = StorageGlobal
	c.universe.Insert(locales)

	nilSym := c.newSymbol("nil", SymVar, source.NoPos)
	nilSym.Type = types.NilType
	nilSym.VarKind = ast.VarConst
	c.universe.Insert(nilSym)

	// Built-in type names resolve through resolveType; no symbols needed.
}

// --------------------------------------------------------- declarations

// collectTypes declares type aliases and record types (two passes so that
// records can reference each other and aliases).
func (c *checker) collectTypes(prog *ast.Program) {
	// Shells first.
	for _, d := range prog.Decls {
		switch dd := d.(type) {
		case *ast.RecordDecl:
			rt := &types.RecordType{Name: dd.Name.Name, IsClass: dd.IsClass}
			c.info.Records[dd.Name.Name] = rt
			s := c.newSymbol(dd.Name.Name, SymType, dd.Name.NamePos)
			s.Type = rt
			c.declare(c.global, s)
			c.info.Defs[dd.Name] = s
		case *ast.TypeAliasDecl:
			s := c.newSymbol(dd.Name.Name, SymType, dd.Name.NamePos)
			c.declare(c.global, s)
			c.info.Defs[dd.Name] = s
		}
	}
	// Resolve alias targets (record fields wait until globals exist, since
	// field array types may reference global domains).
	for _, d := range prog.Decls {
		if dd, ok := d.(*ast.TypeAliasDecl); ok {
			t := c.resolveType(dd.Target)
			if tt, ok := t.(*types.TupleType); ok && tt.Alias == "" {
				// Clone so the alias name shows in display ("v3").
				t = &types.TupleType{Count: tt.Count, Elem: tt.Elem, Alias: dd.Name.Name}
			}
			if s := c.global.LookupLocal(dd.Name.Name); s != nil {
				s.Type = t
			}
		}
	}
}

// resolveRecordFields fills in record/class field types; runs after global
// declarations so field array types can reference global domains
// (CLOMP's `var zoneArray: [zoneSpace] Zone`).
func (c *checker) resolveRecordFields(prog *ast.Program) {
	for _, d := range prog.Decls {
		dd, ok := d.(*ast.RecordDecl)
		if !ok {
			continue
		}
		rt := c.info.Records[dd.Name.Name]
		for _, f := range dd.Fields {
			ft := c.resolveType(f.Type)
			rt.Fields = append(rt.Fields, types.Field{Name: f.Name.Name, Type: ft})
			fsym := c.newSymbol(f.Name.Name, SymVar, f.Name.NamePos)
			fsym.Type = ft
			fsym.Storage = StorageField
			c.info.Defs[f.Name] = fsym
			c.fieldSyms[rt] = append(c.fieldSyms[rt], fsym)
		}
	}
}

// collectProcsAndGlobals declares global variables (in source order, so
// that later declarations may use earlier params and domains) and then
// procedure signatures (which may reference global domains).
func (c *checker) collectProcsAndGlobals(prog *ast.Program) {
	for _, d := range prog.Decls {
		if g, ok := d.(*ast.GlobalVarDecl); ok {
			syms := c.declareVars(g.V, StorageGlobal)
			// Fold compile-time values eagerly so that following global
			// type expressions (k*real, domain sizes) can use them.
			if g.V.Init != nil {
				switch g.V.Kind {
				case ast.VarParam, ast.VarConst, ast.VarConfigConst:
					if v := c.evalConst(g.V.Init); v != nil {
						for _, s := range syms {
							s.ConstVal = v
							if s.Type == nil {
								s.Type = v.T
							}
						}
					}
				}
			}
		}
	}
	for _, d := range prog.Decls {
		switch dd := d.(type) {
		case *ast.ProcDecl:
			c.declareProc(c.global, dd, nil)
		case *ast.RecordDecl:
			rt := c.info.Records[dd.Name.Name]
			for _, m := range dd.Methods {
				c.declareProc(nil, m, rt)
			}
		}
	}
	// The synthetic owner for top-level statements.
	mi := c.newSymbol("__module_init__", SymProc, source.NoPos)
	mi.Type = &types.ProcType{Ret: types.VoidType}
	c.info.ModuleInit = mi
	c.info.Procs = append(c.info.Procs, mi)
}

func (c *checker) declareProc(sc *Scope, d *ast.ProcDecl, recv *types.RecordType) *Symbol {
	s := c.newSymbol(d.Name.Name, SymProc, d.Name.NamePos)
	s.Proc = d
	s.Recv = recv
	pt := &types.ProcType{}
	for _, q := range d.Params {
		var qt types.Type = types.IntType
		if q.Type != nil {
			qt = c.resolveType(q.Type)
		} else if q.Intent != ast.IntentParam {
			c.errorf(q.ParamPos, "parameter %s of %s needs a type annotation", q.Name.Name, d.Name.Name)
		}
		isRef := q.Intent == ast.IntentRef || q.Intent == ast.IntentInout || q.Intent == ast.IntentOut
		// Chapel default intent for arrays and domains acts like ref.
		if q.Intent == ast.IntentDefault {
			switch qt.Kind() {
			case types.Array, types.Domain:
				isRef = true
			}
		}
		pt.Params = append(pt.Params, types.ParamInfo{Name: q.Name.Name, Type: qt, IsRef: isRef})
	}
	pt.Ret = types.VoidType
	if d.RetType != nil {
		pt.Ret = c.resolveType(d.RetType)
	}
	s.Type = pt
	if sc != nil {
		c.declare(sc, s)
	}
	c.info.Defs[d.Name] = s
	c.info.Procs = append(c.info.Procs, s)
	if d.Name.Name == "main" && recv == nil && sc == c.global {
		c.info.Main = s
	}
	return s
}

// declareVars declares the symbols for a VarDecl in the current scope and
// returns them. Types are resolved here; initializer checking happens in
// the statement walk.
func (c *checker) declareVars(d *ast.VarDecl, storage Storage) []*Symbol {
	var declared []*Symbol
	var t types.Type
	if d.Type != nil {
		t = c.resolveType(d.Type)
	}
	sc := c.curScope
	if storage == StorageGlobal {
		sc = c.global
	}
	for _, name := range d.Names {
		s := c.newSymbol(name.Name, SymVar, name.NamePos)
		s.Type = t // may be nil until init inference
		s.Storage = storage
		s.VarKind = d.Kind
		s.IsRefAlias = d.IsRef
		s.Owner = c.curProc
		c.declare(sc, s)
		c.info.Defs[name] = s
		declared = append(declared, s)
		if storage == StorageGlobal {
			c.info.Globals = append(c.info.Globals, s)
		}
		if d.Kind == ast.VarConfigConst {
			c.info.ConfigConsts[name.Name] = s
		}
	}
	return declared
}

// checkGlobalInits type-checks global initializers in declaration order.
func (c *checker) checkGlobalInits(prog *ast.Program) {
	for _, d := range prog.Decls {
		g, ok := d.(*ast.GlobalVarDecl)
		if !ok {
			continue
		}
		c.checkVarInit(g.V)
	}
}

// checkVarInit infers/checks the initializer of an already-declared decl.
func (c *checker) checkVarInit(d *ast.VarDecl) {
	var declared []*Symbol
	for _, name := range d.Names {
		if s := c.info.Defs[name]; s != nil {
			declared = append(declared, s)
		}
	}
	var initT types.Type
	if d.Init != nil {
		initT = c.expr(d.Init)
	}
	for _, s := range declared {
		if s.Type == nil {
			if initT == nil {
				c.errorf(s.Pos, "cannot infer type of %s without initializer", s.Name)
				s.Type = types.IntType
			} else {
				s.Type = initT
			}
		} else if initT != nil && !types.AssignableTo(initT, s.Type) {
			c.errorf(d.Init.Pos(), "cannot initialize %s (type %s) with %s", s.Name, s.Type, initT)
		}
		if d.Kind == ast.VarParam {
			if v := c.evalConst(d.Init); v != nil {
				s.ConstVal = v
			} else {
				c.errorf(s.Pos, "param %s requires a compile-time constant initializer", s.Name)
			}
		}
		if d.Kind == ast.VarConst && d.Init != nil {
			// Fold const values when possible (helps param contexts).
			s.ConstVal = c.evalConst(d.Init)
		}
		if d.Kind == ast.VarConfigConst && d.Init != nil {
			s.ConstVal = c.evalConst(d.Init) // default value, overridable
		}
		if d.IsRef {
			if d.Init == nil {
				c.errorf(s.Pos, "ref declaration %s requires an initializer", s.Name)
			}
		}
	}
}

func (c *checker) checkProcBodies(prog *ast.Program) {
	for _, d := range prog.Decls {
		switch dd := d.(type) {
		case *ast.ProcDecl:
			c.checkProcBody(c.info.Defs[dd.Name], dd)
		case *ast.RecordDecl:
			for _, m := range dd.Methods {
				c.checkProcBody(c.info.Defs[m.Name], m)
			}
		}
	}
}

func (c *checker) checkProcBody(sym *Symbol, d *ast.ProcDecl) {
	if sym == nil {
		return
	}
	outerProc, outerScope, outerYield := c.curProc, c.curScope, c.curIterYield
	c.curProc = sym
	c.curScope = NewScope(outerScope)
	c.curIterYield = nil
	if d.IsIter {
		pt := sym.Type.(*types.ProcType)
		if pt.Ret == nil || pt.Ret.Kind() == types.Void {
			c.errorf(d.ProcPos, "iterator %s needs a yield type annotation", d.Name.Name)
			c.curIterYield = types.IntType
		} else {
			c.curIterYield = pt.Ret
		}
		for _, q := range d.Params {
			if q.Intent == ast.IntentRef || q.Intent == ast.IntentOut || q.Intent == ast.IntentInout {
				c.errorf(q.ParamPos, "iterator %s: ref-intent parameters are not supported", d.Name.Name)
			}
		}
	}
	defer func() { c.curProc, c.curScope, c.curIterYield = outerProc, outerScope, outerYield }()

	pt := sym.Type.(*types.ProcType)
	// Implicit receiver and direct field access in methods.
	if sym.Recv != nil {
		this := c.newSymbol("this", SymVar, d.ProcPos)
		this.Type = sym.Recv
		this.Storage = StorageParam
		this.RefParam = true
		this.Owner = sym
		c.curScope.Insert(this)
		for _, f := range c.fieldSyms[sym.Recv] {
			c.curScope.Insert(f)
		}
	}
	for i, q := range d.Params {
		ps := c.newSymbol(q.Name.Name, SymVar, q.Name.NamePos)
		ps.Type = pt.Params[i].Type
		ps.Storage = StorageParam
		ps.RefParam = pt.Params[i].IsRef
		ps.Owner = sym
		if q.Intent == ast.IntentParam {
			ps.VarKind = ast.VarParam
		}
		c.declare(c.curScope, ps)
		c.info.Defs[q.Name] = ps
	}
	c.block(d.Body)
}

func (c *checker) checkTopStmts(prog *ast.Program) {
	outerProc, outerScope := c.curProc, c.curScope
	c.curProc = c.info.ModuleInit
	c.curScope = NewScope(c.global)
	defer func() { c.curProc, c.curScope = outerProc, outerScope }()
	for _, s := range prog.TopStmts {
		c.stmt(s)
	}
}

// ---------------------------------------------------------------- stmts

func (c *checker) block(b *ast.BlockStmt) {
	outer := c.curScope
	c.curScope = NewScope(outer)
	for _, s := range b.Stmts {
		c.stmt(s)
	}
	c.curScope = outer
}

func (c *checker) stmt(s ast.Stmt) {
	switch ss := s.(type) {
	case *ast.VarDecl:
		c.declareVars(ss, StorageLocal)
		c.checkVarInit(ss)
	case *ast.DeclStmt:
		switch dd := ss.D.(type) {
		case *ast.ProcDecl:
			ps := c.declareProc(c.curScope, dd, nil)
			ps.Owner = c.curProc
			c.checkProcBody(ps, dd)
		case *ast.TypeAliasDecl:
			t := c.resolveType(dd.Target)
			sym := c.newSymbol(dd.Name.Name, SymType, dd.Name.NamePos)
			sym.Type = t
			c.declare(c.curScope, sym)
			c.info.Defs[dd.Name] = sym
		case *ast.RecordDecl:
			c.errorf(dd.RecPos, "record declarations must be at module level")
		}
	case *ast.AssignStmt:
		c.assign(ss)
	case *ast.ExprStmt:
		c.expr(ss.X)
	case *ast.BlockStmt:
		c.block(ss)
	case *ast.IfStmt:
		ct := c.expr(ss.Cond)
		if ct != nil && ct.Kind() != types.Bool {
			c.errorf(ss.Cond.Pos(), "if condition must be bool, got %s", ct)
		}
		c.block(ss.Then)
		if ss.Else != nil {
			c.stmt(ss.Else)
		}
	case *ast.WhileStmt:
		ct := c.expr(ss.Cond)
		if ct != nil && ct.Kind() != types.Bool {
			c.errorf(ss.Cond.Pos(), "while condition must be bool, got %s", ct)
		}
		c.loopDepth++
		c.block(ss.Body)
		c.loopDepth--
	case *ast.DoWhileStmt:
		c.loopDepth++
		c.block(ss.Body)
		c.loopDepth--
		ct := c.expr(ss.Cond)
		if ct != nil && ct.Kind() != types.Bool {
			c.errorf(ss.Cond.Pos(), "do-while condition must be bool, got %s", ct)
		}
	case *ast.ForStmt:
		c.forStmt(ss)
	case *ast.SelectStmt:
		st := c.expr(ss.Subject)
		for _, w := range ss.Whens {
			for _, v := range w.Values {
				vt := c.expr(v)
				if st != nil && vt != nil && !types.AssignableTo(vt, st) && !types.AssignableTo(st, vt) {
					c.errorf(v.Pos(), "when value type %s does not match select subject type %s", vt, st)
				}
			}
			c.block(w.Body)
		}
		if ss.Otherwise != nil {
			c.block(ss.Otherwise)
		}
	case *ast.ReturnStmt:
		c.returnStmt(ss)
	case *ast.YieldStmt:
		if c.curIterYield == nil {
			c.errorf(ss.YieldPos, "yield outside an iterator")
			c.expr(ss.X)
			break
		}
		yt := c.expr(ss.X)
		if yt != nil && !types.AssignableTo(yt, c.curIterYield) {
			c.errorf(ss.X.Pos(), "cannot yield %s from an iterator of %s", yt, c.curIterYield)
		}
	case *ast.BreakStmt:
		if c.loopDepth == 0 {
			c.errorf(ss.BrkPos, "break outside loop")
		}
	case *ast.ContinueStmt:
		if c.loopDepth == 0 {
			c.errorf(ss.ContPos, "continue outside loop")
		}
	case *ast.OnStmt:
		tt := c.expr(ss.Target)
		if tt != nil && tt.Kind() != types.LocaleK {
			c.errorf(ss.Target.Pos(), "on target must be a locale, got %s", tt)
		}
		c.block(ss.Body)
	case *ast.BeginStmt:
		c.block(ss.Body)
	case *ast.CobeginStmt:
		c.block(ss.Body)
	case *ast.SyncStmt:
		c.block(ss.Body)
	}
}

func (c *checker) assign(s *ast.AssignStmt) {
	lt := c.expr(s.Lhs)
	rt := c.expr(s.Rhs)
	if !c.isLvalue(s.Lhs) {
		c.errorf(s.Lhs.Pos(), "left side of assignment is not assignable")
	}
	if lt == nil || rt == nil {
		return
	}
	if s.Op.String() == "<=>" {
		if !types.Identical(lt, rt) {
			c.errorf(s.Lhs.Pos(), "swap operands must have identical types (%s vs %s)", lt, rt)
		}
		if !c.isLvalue(s.Rhs) {
			c.errorf(s.Rhs.Pos(), "right side of swap is not assignable")
		}
		return
	}
	if !types.AssignableTo(rt, lt) {
		c.errorf(s.Rhs.Pos(), "cannot assign %s to %s", rt, lt)
	}
}

// isLvalue reports whether e denotes a storage location.
func (c *checker) isLvalue(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		sym := c.info.SymOf(x)
		if sym == nil {
			return false
		}
		if sym.Kind != SymVar {
			return false
		}
		switch sym.VarKind {
		case ast.VarConst, ast.VarParam, ast.VarConfigConst:
			// Const globals are not assignable; but loop vars and ref
			// params may carry VarVar. Allow out/inout params.
			return sym.RefParam
		}
		return true
	case *ast.IndexExpr:
		return true
	case *ast.FieldExpr:
		return true
	case *ast.CallExpr:
		// Tuple indexing t(1) is assignable.
		if ci := c.info.Calls[x]; ci != nil && ci.TupleIndex {
			return true
		}
		return false
	}
	return false
}

func (c *checker) returnStmt(s *ast.ReturnStmt) {
	if c.curProc == nil || c.curProc == c.info.ModuleInit {
		if s.X != nil {
			c.errorf(s.RetPos, "return with value outside procedure")
		}
		return
	}
	pt, _ := c.curProc.Type.(*types.ProcType)
	if pt == nil {
		return
	}
	if c.curIterYield != nil {
		if s.X != nil {
			c.errorf(s.RetPos, "iterators return values via yield, not return")
		}
		return
	}
	if s.X == nil {
		if pt.Ret != nil && pt.Ret.Kind() != types.Void {
			c.errorf(s.RetPos, "missing return value in %s", c.curProc.Name)
		}
		return
	}
	rt := c.expr(s.X)
	if pt.Ret == nil || pt.Ret.Kind() == types.Void {
		c.errorf(s.RetPos, "%s has no return type but returns a value", c.curProc.Name)
		return
	}
	if rt != nil && !types.AssignableTo(rt, pt.Ret) {
		c.errorf(s.X.Pos(), "cannot return %s from %s (want %s)", rt, c.curProc.Name, pt.Ret)
	}
}

func (c *checker) forStmt(s *ast.ForStmt) {
	// Type the iterand first (indices are not in scope there).
	var iterT types.Type
	var zipTs []types.Type
	isIterCall := false
	if z, ok := s.Iter.(*ast.ZipExpr); ok {
		for _, a := range z.Args {
			zipTs = append(zipTs, c.expr(a))
		}
		c.info.Types[z] = types.VoidType
	} else {
		if call, ok := s.Iter.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if sym := c.curScope.Lookup(id.Name); sym != nil && sym.Kind == SymProc && sym.Proc != nil && sym.Proc.IsIter {
					isIterCall = true
					c.iterandCall = call
				}
			}
		}
		iterT = c.expr(s.Iter)
		c.iterandCall = nil
		if isIterCall && (s.Kind == ast.LoopForall || s.Kind == ast.LoopCoforall) {
			c.errorf(s.ForPos, "parallel iteration over a serial iterator is not supported")
		}
	}

	outer := c.curScope
	c.curScope = NewScope(outer)
	defer func() { c.curScope = outer }()

	declareIdx := func(id *ast.Ident, t types.Type, isRefElem bool) {
		sym := c.newSymbol(id.Name, SymVar, id.NamePos)
		sym.Type = t
		sym.Storage = StorageLocal
		sym.Owner = c.curProc
		sym.VarKind = ast.VarVar
		if isRefElem {
			sym.IsRefAlias = true
			sym.RefParam = true // writable through the alias
		} else if s.Kind == ast.LoopParamFor {
			sym.VarKind = ast.VarParam
		} else {
			// Plain loop indices are not assignable in Chapel.
			sym.VarKind = ast.VarConst
		}
		c.declare(c.curScope, sym)
		c.info.Defs[id] = sym
	}

	idxType := func(t types.Type) (types.Type, bool) {
		if t == nil {
			return types.IntType, false
		}
		if isIterCall {
			// The loop variable takes the iterator's yield type.
			return t, false
		}
		switch tt := t.(type) {
		case *types.RangeType:
			return types.IntType, false
		case *types.DomainType:
			if tt.Rank == 1 {
				return types.IntType, false
			}
			return &types.TupleType{Count: tt.Rank, Elem: types.IntType}, false
		case *types.ArrayType:
			return tt.Elem, true
		}
		c.errorf(s.Iter.Pos(), "cannot iterate over %s", t)
		return types.IntType, false
	}

	if zipTs != nil {
		if len(s.Idx) != len(zipTs) {
			c.errorf(s.ForPos, "zip arity %d does not match %d index variables", len(zipTs), len(s.Idx))
		}
		for i, id := range s.Idx {
			var t types.Type = types.IntType
			isRef := false
			if i < len(zipTs) {
				t, isRef = idxType(zipTs[i])
			}
			declareIdx(id, t, isRef)
		}
	} else {
		t, isRef := idxType(iterT)
		if len(s.Idx) == 1 {
			declareIdx(s.Idx[0], t, isRef)
		} else {
			// Destructuring: (i, j) over a rank-n domain or tuple elements.
			if tt, ok := t.(*types.TupleType); ok && tt.Count == len(s.Idx) {
				for _, id := range s.Idx {
					declareIdx(id, tt.Elem, false)
				}
			} else {
				c.errorf(s.ForPos, "cannot destructure %s into %d variables", t, len(s.Idx))
				for _, id := range s.Idx {
					declareIdx(id, types.IntType, false)
				}
			}
		}
	}

	if s.Kind == ast.LoopParamFor {
		r, ok := s.Iter.(*ast.RangeExpr)
		if !ok {
			c.errorf(s.Iter.Pos(), "param for requires a literal range")
		} else {
			lo := c.evalConst(r.Lo)
			var hi *ConstValue
			if r.Hi != nil {
				hi = c.evalConst(r.Hi)
			} else if r.Count != nil {
				if cnt := c.evalConst(r.Count); cnt != nil && lo != nil {
					hi = arith.Int(lo.Int() + cnt.Int() - 1).Const()
				}
			}
			if lo == nil || hi == nil {
				c.errorf(s.Iter.Pos(), "param for bounds must be compile-time constants")
			} else {
				c.info.Consts[r] = arith.Int(hi.Int() - lo.Int() + 1).Const()
				c.info.Consts[r.Lo] = lo
				if r.Hi != nil {
					c.info.Consts[r.Hi] = hi
				}
			}
		}
	}

	c.loopDepth++
	c.block(s.Body)
	c.loopDepth--
}
