package sem

import (
	"repro/internal/arith"
	"repro/internal/ast"
	"repro/internal/token"
	"repro/internal/types"
)

// expr type-checks e and records/returns its type (nil on error).
func (c *checker) expr(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	if t, ok := c.info.Types[e]; ok {
		return t
	}
	t := c.exprInternal(e)
	if t != nil {
		c.info.Types[e] = t
	}
	return t
}

func (c *checker) exprInternal(e ast.Expr) types.Type {
	switch x := e.(type) {
	case *ast.IntLit:
		c.info.Consts[x] = arith.Int(x.Value).Const()
		return types.IntType
	case *ast.RealLit:
		c.info.Consts[x] = arith.Real(x.Value).Const()
		return types.RealType
	case *ast.BoolLit:
		c.info.Consts[x] = arith.Bool(x.Value).Const()
		return types.BoolType
	case *ast.StringLit:
		return types.StringType
	case *ast.Ident:
		return c.identExpr(x)
	case *ast.BinaryExpr:
		return c.binaryExpr(x)
	case *ast.UnaryExpr:
		return c.unaryExpr(x)
	case *ast.RangeExpr:
		return c.rangeExpr(x)
	case *ast.TupleExpr:
		return c.tupleExpr(x)
	case *ast.DomainLit:
		for _, d := range x.Dims {
			dt := c.expr(d)
			if dt != nil && dt.Kind() != types.Range {
				c.errorf(d.Pos(), "domain literal dimension must be a range, got %s", dt)
			}
		}
		return &types.DomainType{Rank: len(x.Dims)}
	case *ast.IndexExpr:
		return c.indexExpr(x)
	case *ast.FieldExpr:
		return c.fieldExpr(x)
	case *ast.CallExpr:
		return c.callExpr(x)
	case *ast.IfExpr:
		ct := c.expr(x.Cond)
		if ct != nil && ct.Kind() != types.Bool {
			c.errorf(x.Cond.Pos(), "if-expression condition must be bool")
		}
		at := c.expr(x.Then)
		bt := c.expr(x.Else)
		if at == nil || bt == nil {
			return at
		}
		if types.Identical(at, bt) {
			return at
		}
		if types.IsNumeric(at) && types.IsNumeric(bt) {
			return types.Common(at, bt)
		}
		c.errorf(x.IfPos, "if-expression branches have mismatched types %s and %s", at, bt)
		return at
	case *ast.NewExpr:
		t := c.resolveType(x.Type)
		rt, ok := t.(*types.RecordType)
		if !ok || !rt.IsClass {
			c.errorf(x.NewPos, "new requires a class type, got %s", t)
			return t
		}
		for _, a := range x.Args {
			c.expr(a)
		}
		return rt
	case *ast.ReduceExpr:
		// `+ reduce f()` folds a user-defined iterator's stream.
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if sym := c.curScope.Lookup(id.Name); sym != nil && sym.Kind == SymProc && sym.Proc != nil && sym.Proc.IsIter {
					prev := c.iterandCall
					c.iterandCall = call
					xt := c.expr(call)
					c.iterandCall = prev
					if xt != nil && !types.IsNumeric(xt) {
						c.errorf(x.OpPos, "reduce over an iterator requires numeric yields, got %s", xt)
					}
					return xt
				}
			}
		}
		xt := c.expr(x.X)
		if at, ok := xt.(*types.ArrayType); ok {
			return at.Elem
		}
		if xt != nil && types.IsNumeric(xt) {
			return xt
		}
		c.errorf(x.OpPos, "reduce requires an array operand, got %s", xt)
		return types.RealType
	case *ast.ZipExpr:
		c.errorf(x.ZipPos, "zip may only appear as a loop iterand")
		return types.VoidType
	}
	return nil
}

func (c *checker) identExpr(x *ast.Ident) types.Type {
	sym := c.curScope.Lookup(x.Name)
	if sym == nil {
		c.errorf(x.NamePos, "undefined: %s", x.Name)
		return nil
	}
	c.info.Uses[x] = sym
	switch sym.Kind {
	case SymProc, SymBuiltin:
		// Allowed as call targets only; callExpr handles them.
		return &types.ProcType{Ret: types.VoidType}
	case SymType:
		return sym.Type
	}
	// Capture tracking: a local/param of an enclosing procedure referenced
	// inside a nested procedure is captured by reference.
	if sym.Owner != nil && c.curProc != nil && sym.Owner != c.curProc {
		c.addCapture(c.curProc, sym)
	}
	if sym.ConstVal != nil && sym.VarKind == ast.VarParam {
		c.info.Consts[x] = sym.ConstVal
	}
	return sym.Type
}

func (c *checker) addCapture(proc, sym *Symbol) {
	for _, s := range c.info.Captures[proc] {
		if s == sym {
			return
		}
	}
	c.info.Captures[proc] = append(c.info.Captures[proc], sym)
}

func (c *checker) binaryExpr(x *ast.BinaryExpr) types.Type {
	lt := c.expr(x.X)
	rt := c.expr(x.Y)
	if lt == nil || rt == nil {
		return nil
	}
	// Constant folding for param contexts.
	if lv, rv := c.info.Consts[x.X], c.info.Consts[x.Y]; lv != nil && rv != nil {
		if v := arith.BinConst(x.Op, lv, rv); v != nil {
			c.info.Consts[x] = v
		}
	}
	switch x.Op {
	case token.AND, token.OR:
		if lt.Kind() != types.Bool || rt.Kind() != types.Bool {
			c.errorf(x.X.Pos(), "%s requires bool operands, got %s and %s", x.Op, lt, rt)
		}
		return types.BoolType
	case token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE:
		if types.IsNumeric(lt) && types.IsNumeric(rt) {
			return types.BoolType
		}
		if types.Identical(lt, rt) {
			return types.BoolType
		}
		if (lt.Kind() == types.Nil && rt.Kind() == types.Class) || (rt.Kind() == types.Nil && lt.Kind() == types.Class) {
			return types.BoolType
		}
		c.errorf(x.X.Pos(), "cannot compare %s and %s", lt, rt)
		return types.BoolType
	case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT, token.POW:
		return c.arith(x, lt, rt)
	}
	c.errorf(x.X.Pos(), "invalid binary operator %s", x.Op)
	return nil
}

// arith types arithmetic with Chapel-style promotion over tuples/arrays.
func (c *checker) arith(x *ast.BinaryExpr, lt, rt types.Type) types.Type {
	if types.IsNumeric(lt) && types.IsNumeric(rt) {
		if x.Op == token.PERCENT && (lt.Kind() != types.Int || rt.Kind() != types.Int) {
			c.errorf(x.X.Pos(), "%% requires integer operands")
		}
		if x.Op == token.SLASH && lt.Kind() == types.Int && rt.Kind() == types.Int {
			return types.IntType
		}
		return types.Common(lt, rt)
	}
	// Tuple ± tuple, tuple * scalar, scalar * tuple (elementwise).
	ltup, lok := lt.(*types.TupleType)
	rtup, rok := rt.(*types.TupleType)
	switch {
	case lok && rok:
		if ltup.Count != rtup.Count {
			c.errorf(x.X.Pos(), "tuple size mismatch: %s vs %s", lt, rt)
		}
		return ltup
	case lok && types.IsNumeric(rt):
		return ltup
	case rok && types.IsNumeric(lt):
		return rtup
	}
	// Array promotion: elementwise whole-array ops.
	larr, laok := lt.(*types.ArrayType)
	rarr, raok := rt.(*types.ArrayType)
	switch {
	case laok && raok:
		if larr.Rank != rarr.Rank {
			c.errorf(x.X.Pos(), "array rank mismatch: %s vs %s", lt, rt)
		}
		return larr
	case laok && types.IsNumeric(rt):
		return larr
	case raok && types.IsNumeric(lt):
		return rarr
	}
	// String concatenation.
	if lt.Kind() == types.String && rt.Kind() == types.String && x.Op == token.PLUS {
		return types.StringType
	}
	c.errorf(x.X.Pos(), "invalid operands for %s: %s and %s", x.Op, lt, rt)
	return nil
}

func (c *checker) unaryExpr(x *ast.UnaryExpr) types.Type {
	xt := c.expr(x.X)
	if xt == nil {
		return nil
	}
	if v := c.info.Consts[x.X]; v != nil {
		if f := arith.UnConst(x.Op, v); f != nil {
			c.info.Consts[x] = f
		}
	}
	switch x.Op {
	case token.MINUS:
		if types.IsNumeric(xt) {
			return xt
		}
		if _, ok := xt.(*types.TupleType); ok {
			return xt
		}
		if _, ok := xt.(*types.ArrayType); ok {
			return xt
		}
		c.errorf(x.OpPos, "cannot negate %s", xt)
		return nil
	case token.NOT:
		if xt.Kind() != types.Bool {
			c.errorf(x.OpPos, "! requires bool, got %s", xt)
		}
		return types.BoolType
	}
	return nil
}

func (c *checker) rangeExpr(x *ast.RangeExpr) types.Type {
	check := func(e ast.Expr) {
		if e == nil {
			return
		}
		t := c.expr(e)
		if t != nil && t.Kind() != types.Int {
			c.errorf(e.Pos(), "range bound must be int, got %s", t)
		}
	}
	check(x.Lo)
	check(x.Hi)
	check(x.Count)
	check(x.By)
	return types.RangeVal
}

func (c *checker) tupleExpr(x *ast.TupleExpr) types.Type {
	if len(x.Elems) == 0 {
		c.errorf(x.Lparen, "empty tuple")
		return nil
	}
	var elem types.Type
	for _, e := range x.Elems {
		t := c.expr(e)
		if t == nil {
			continue
		}
		if elem == nil {
			elem = t
		} else if !types.Identical(elem, t) {
			if types.IsNumeric(elem) && types.IsNumeric(t) {
				elem = types.Common(elem, t)
			} else {
				c.errorf(e.Pos(), "tuple elements must share a type (%s vs %s)", elem, t)
			}
		}
	}
	if elem == nil {
		return nil
	}
	return &types.TupleType{Count: len(x.Elems), Elem: elem}
}

func (c *checker) indexExpr(x *ast.IndexExpr) types.Type {
	bt := c.expr(x.X)
	var idxTs []types.Type
	for _, i := range x.Index {
		idxTs = append(idxTs, c.expr(i))
	}
	if bt == nil {
		return nil
	}
	switch b := bt.(type) {
	case *types.ArrayType:
		// A[i], A[i,j]: element access; A[range] / A[domain]: slice view.
		if len(idxTs) == 1 && idxTs[0] != nil {
			switch idxTs[0].Kind() {
			case types.Range:
				return &types.ArrayType{Rank: 1, Elem: b.Elem, DomName: b.DomName}
			case types.Domain:
				dr := idxTs[0].(*types.DomainType).Rank
				if dr != b.Rank {
					c.errorf(x.Lbrack, "slice domain rank %d does not match array rank %d", dr, b.Rank)
				}
				return &types.ArrayType{Rank: b.Rank, Elem: b.Elem, DomName: b.DomName}
			case types.Tuple:
				// A[(i,j)] full-rank tuple index.
				tt := idxTs[0].(*types.TupleType)
				if tt.Count != b.Rank {
					c.errorf(x.Lbrack, "index tuple size %d does not match array rank %d", tt.Count, b.Rank)
				}
				return b.Elem
			}
		}
		if len(idxTs) != b.Rank {
			c.errorf(x.Lbrack, "array of rank %d indexed with %d subscripts", b.Rank, len(idxTs))
		}
		for k, it := range idxTs {
			if it != nil && it.Kind() != types.Int {
				c.errorf(x.Index[k].Pos(), "array index must be int, got %s", it)
			}
		}
		return b.Elem
	case *types.TupleType:
		if len(idxTs) != 1 || (idxTs[0] != nil && idxTs[0].Kind() != types.Int) {
			c.errorf(x.Lbrack, "tuple index must be a single int")
		}
		return b.Elem
	case *types.DomainType:
		c.errorf(x.Lbrack, "cannot index a domain")
		return nil
	}
	c.errorf(x.Lbrack, "cannot index %s", bt)
	return nil
}

func (c *checker) fieldExpr(x *ast.FieldExpr) types.Type {
	bt := c.expr(x.X)
	if bt == nil {
		return nil
	}
	name := x.Name.Name
	switch b := bt.(type) {
	case *types.RecordType:
		if i := b.FieldIndex(name); i >= 0 {
			return b.Fields[i].Type
		}
		// Zero-arg method access is only valid as a call; callExpr handles it.
		for _, m := range c.methodsOf(b) {
			if m.Name == name {
				return m.Type
			}
		}
		c.errorf(x.Name.NamePos, "%s has no field %s", b.Name, name)
		return nil
	case *types.DomainType:
		switch name {
		case "size", "numIndices":
			return types.IntType
		case "low", "high", "first", "last":
			if b.Rank == 1 {
				return types.IntType
			}
			return &types.TupleType{Count: b.Rank, Elem: types.IntType}
		}
		c.errorf(x.Name.NamePos, "domain has no member %s", name)
		return nil
	case *types.RangeType:
		switch name {
		case "size", "length", "low", "high", "first", "last":
			return types.IntType
		}
		c.errorf(x.Name.NamePos, "range has no member %s", name)
		return nil
	case *types.ArrayType:
		switch name {
		case "size", "numElements":
			return types.IntType
		case "domain":
			return &types.DomainType{Rank: b.Rank}
		}
		c.errorf(x.Name.NamePos, "array has no member %s", name)
		return nil
	case *types.TupleType:
		if name == "size" {
			c.info.Consts[x] = arith.Int(int64(b.Count)).Const()
			return types.IntType
		}
		c.errorf(x.Name.NamePos, "tuple has no member %s", name)
		return nil
	case *types.Basic:
		if b.K == types.LocaleK {
			switch name {
			case "id":
				return types.IntType
			case "name":
				return types.StringType
			case "maxTaskPar", "numCores":
				return types.IntType
			}
		}
	}
	c.errorf(x.Name.NamePos, "%s has no member %s", bt, name)
	return nil
}

// methodsOf returns the method symbols of a record type.
func (c *checker) methodsOf(rt *types.RecordType) []*Symbol {
	var out []*Symbol
	for _, p := range c.info.Procs {
		if p.Recv == rt {
			out = append(out, p)
		}
	}
	return out
}

func (c *checker) callExpr(x *ast.CallExpr) types.Type {
	// Method call or type-method: fun is a FieldExpr.
	if fe, ok := x.Fun.(*ast.FieldExpr); ok {
		return c.methodCall(x, fe)
	}

	id, ok := x.Fun.(*ast.Ident)
	if !ok {
		// Call syntax on a general expression: tuple indexing
		// (Pos[i][j](1)) or array call-indexing (A(i)).
		ft := c.expr(x.Fun)
		if tt, isTuple := ft.(*types.TupleType); isTuple {
			if len(x.Args) != 1 {
				c.errorf(x.Lparen, "tuple index takes one argument")
			} else if at := c.expr(x.Args[0]); at != nil && at.Kind() != types.Int {
				c.errorf(x.Args[0].Pos(), "tuple index must be int")
			}
			c.info.Calls[x] = &CallInfo{TupleIndex: true}
			return tt.Elem
		}
		if _, isArr := ft.(*types.ArrayType); isArr {
			ix := &ast.IndexExpr{X: x.Fun, Lbrack: x.Lparen, Index: x.Args}
			t := c.indexExpr(ix)
			c.info.Calls[x] = &CallInfo{TypeMethod: "index"}
			return t
		}
		c.errorf(x.Fun.Pos(), "cannot call this expression")
		return nil
	}
	sym := c.curScope.Lookup(id.Name)
	if sym == nil {
		c.errorf(id.NamePos, "undefined: %s", id.Name)
		return nil
	}
	c.info.Uses[id] = sym
	if sym.Type != nil {
		c.info.Types[id] = sym.Type
	} else {
		c.info.Types[id] = &types.ProcType{Ret: types.VoidType}
	}

	switch sym.Kind {
	case SymBuiltin:
		return c.builtinCall(x, sym)
	case SymProc:
		return c.procCall(x, sym)
	case SymVar:
		// Tuple indexing: t(1).
		if tt, ok := sym.Type.(*types.TupleType); ok {
			if len(x.Args) != 1 {
				c.errorf(x.Lparen, "tuple index takes one argument")
			} else if at := c.expr(x.Args[0]); at != nil && at.Kind() != types.Int {
				c.errorf(x.Args[0].Pos(), "tuple index must be int")
			}
			if sym.Owner != nil && c.curProc != nil && sym.Owner != c.curProc {
				c.addCapture(c.curProc, sym)
			}
			c.info.Calls[x] = &CallInfo{TupleIndex: true}
			c.info.Types[x.Fun] = tt
			return tt.Elem
		}
		// Array "call" syntax A(i) is also legal Chapel.
		if _, ok := sym.Type.(*types.ArrayType); ok {
			ix := &ast.IndexExpr{X: x.Fun, Lbrack: x.Lparen, Index: x.Args}
			t := c.indexExpr(ix)
			c.info.Calls[x] = &CallInfo{TypeMethod: "index"}
			return t
		}
		c.errorf(id.NamePos, "cannot call %s of type %s", id.Name, sym.Type)
		return nil
	case SymType:
		c.errorf(id.NamePos, "type %s is not callable; use new for classes", id.Name)
		return nil
	}
	return nil
}

func (c *checker) procCall(x *ast.CallExpr, sym *Symbol) types.Type {
	pt := sym.Type.(*types.ProcType)
	isIter := sym.Proc != nil && sym.Proc.IsIter
	if isIter && x != c.iterandCall {
		c.errorf(x.Lparen, "iterator %s can only be invoked as a serial loop iterand", sym.Name)
	}
	if len(x.Args) != len(pt.Params) {
		c.errorf(x.Lparen, "%s takes %d arguments, got %d", sym.Name, len(pt.Params), len(x.Args))
	}
	for i, a := range x.Args {
		at := c.expr(a)
		if i < len(pt.Params) && at != nil {
			p := pt.Params[i]
			if !types.AssignableTo(at, p.Type) {
				c.errorf(a.Pos(), "argument %d of %s: cannot pass %s as %s", i+1, sym.Name, at, p.Type)
			}
			if p.IsRef && !c.isLvalue(a) && at.Kind() != types.Array && at.Kind() != types.Domain {
				c.errorf(a.Pos(), "argument %d of %s must be assignable (ref intent)", i+1, sym.Name)
			}
		}
	}
	c.info.Calls[x] = &CallInfo{Target: sym, Iterator: isIter}
	return pt.Ret
}

func (c *checker) methodCall(x *ast.CallExpr, fe *ast.FieldExpr) types.Type {
	bt := c.expr(fe.X)
	if bt == nil {
		return nil
	}
	name := fe.Name.Name
	// Record/class methods.
	if rt, ok := bt.(*types.RecordType); ok {
		for _, m := range c.methodsOf(rt) {
			if m.Name == name {
				mt := m.Type.(*types.ProcType)
				if len(x.Args) != len(mt.Params) {
					c.errorf(x.Lparen, "%s.%s takes %d arguments, got %d", rt.Name, name, len(mt.Params), len(x.Args))
				}
				for i, a := range x.Args {
					at := c.expr(a)
					if i < len(mt.Params) && at != nil && !types.AssignableTo(at, mt.Params[i].Type) {
						c.errorf(a.Pos(), "argument %d of %s: cannot pass %s as %s", i+1, name, at, mt.Params[i].Type)
					}
				}
				c.info.Calls[x] = &CallInfo{Target: m, Method: true}
				c.info.Types[fe] = mt
				return mt.Ret
			}
		}
		c.errorf(fe.Name.NamePos, "%s has no method %s", rt.Name, name)
		return nil
	}
	// Built-in type methods.
	for _, a := range x.Args {
		c.expr(a)
	}
	record := func(t types.Type) types.Type {
		c.info.Calls[x] = &CallInfo{TypeMethod: name}
		c.info.Types[fe] = t
		return t
	}
	switch b := bt.(type) {
	case *types.AtomicType:
		need := func(n int) {
			if len(x.Args) != n {
				c.errorf(x.Lparen, "%s takes %d argument(s)", name, n)
			}
		}
		switch name {
		case "read":
			need(0)
			c.info.Calls[x] = &CallInfo{TypeMethod: "atomic:read"}
			return b.Elem
		case "write":
			need(1)
			c.info.Calls[x] = &CallInfo{TypeMethod: "atomic:write"}
			return types.VoidType
		case "add", "sub":
			need(1)
			c.info.Calls[x] = &CallInfo{TypeMethod: "atomic:" + name}
			return types.VoidType
		case "fetchAdd":
			need(1)
			c.info.Calls[x] = &CallInfo{TypeMethod: "atomic:fetchAdd"}
			return b.Elem
		}
		c.errorf(fe.Name.NamePos, "atomic has no method %s", name)
		return nil
	case *types.DomainType:
		switch name {
		case "expand", "translate", "interior", "exterior":
			return record(b)
		case "dim":
			return record(types.RangeVal)
		case "size":
			return record(types.IntType)
		}
	case *types.ArrayType:
		switch name {
		case "size":
			return record(types.IntType)
		case "reindex":
			return record(b)
		}
	case *types.RangeType:
		switch name {
		case "size", "length":
			return record(types.IntType)
		}
	}
	c.errorf(fe.Name.NamePos, "%s has no method %s", bt, name)
	return nil
}

func (c *checker) builtinCall(x *ast.CallExpr, sym *Symbol) types.Type {
	var argTs []types.Type
	for _, a := range x.Args {
		argTs = append(argTs, c.expr(a))
	}
	c.info.Calls[x] = &CallInfo{Builtin: sym.Name}
	need := func(n int) bool {
		if len(x.Args) != n {
			c.errorf(x.Lparen, "%s takes %d argument(s), got %d", sym.Name, n, len(x.Args))
			return false
		}
		return true
	}
	numeric1 := func() types.Type {
		if !need(1) || argTs[0] == nil {
			return types.RealType
		}
		if !types.IsNumeric(argTs[0]) {
			c.errorf(x.Args[0].Pos(), "%s requires a numeric argument, got %s", sym.Name, argTs[0])
		}
		return argTs[0]
	}
	switch sym.Name {
	case "writeln", "write":
		return types.VoidType
	case "sqrt", "cbrt", "exp", "log", "sin", "cos", "floor", "ceil":
		if need(1) && argTs[0] != nil && !types.IsNumeric(argTs[0]) {
			c.errorf(x.Args[0].Pos(), "%s requires a numeric argument", sym.Name)
		}
		return types.RealType
	case "abs", "sgn":
		return numeric1()
	case "min", "max":
		if len(x.Args) < 2 {
			c.errorf(x.Lparen, "%s takes at least 2 arguments", sym.Name)
			return types.IntType
		}
		t := argTs[0]
		for _, at := range argTs[1:] {
			if t != nil && at != nil {
				t = types.Common(t, at)
			}
		}
		return t
	case "getCurrentTime":
		return types.RealType
	case "assert":
		if need(1) && argTs[0] != nil && argTs[0].Kind() != types.Bool {
			c.errorf(x.Args[0].Pos(), "assert requires a bool")
		}
		return types.VoidType
	case "exit", "halt":
		return types.VoidType
	}
	return types.VoidType
}

// ------------------------------------------------------- type resolution

func (c *checker) resolveType(te ast.TypeExpr) types.Type {
	switch t := te.(type) {
	case *ast.NamedType:
		switch t.Name {
		case "int", "uint":
			if t.Width == 32 {
				return types.Int32Type
			}
			return types.IntType
		case "real":
			if t.Width == 32 {
				return types.Real32Type
			}
			return types.RealType
		case "bool":
			return types.BoolType
		case "string":
			return types.StringType
		case "void":
			return types.VoidType
		case "locale":
			return types.LocaleType
		}
		if sym := c.curScope.Lookup(t.Name); sym != nil && sym.Kind == SymType {
			return sym.Type
		}
		if rt, ok := c.info.Records[t.Name]; ok {
			return rt
		}
		c.errorf(t.NamePos, "undefined type %s", t.Name)
		return types.IntType
	case *ast.TupleType:
		cnt := c.evalConst(t.Count)
		n := 0
		if cnt == nil {
			c.errorf(t.CountPos, "tuple size must be a compile-time constant")
			n = 1
		} else {
			n = int(cnt.Int())
			if n < 1 {
				c.errorf(t.CountPos, "tuple size must be positive, got %d", n)
				n = 1
			}
		}
		return &types.TupleType{Count: n, Elem: c.resolveType(t.Elem)}
	case *ast.DomainType:
		r := c.evalConst(t.Rank)
		rank := 1
		if r == nil {
			c.errorf(t.DomPos, "domain rank must be a compile-time constant")
		} else {
			rank = int(r.Int())
			if rank < 1 || rank > 3 {
				c.errorf(t.DomPos, "domain rank must be 1..3, got %d", rank)
				rank = 1
			}
		}
		if t.Dist != "" && t.Dist != "Block" {
			c.errorf(t.DomPos, "unsupported distribution %q (only Block)", t.Dist)
		}
		return &types.DomainType{Rank: rank, Dist: t.Dist}
	case *ast.ArrayType:
		elem := c.resolveType(t.Elem)
		rank := len(t.Dom)
		domName := ""
		if len(t.Dom) == 1 {
			dt := c.expr(t.Dom[0])
			if dt != nil {
				switch d := dt.(type) {
				case *types.DomainType:
					rank = d.Rank
				case *types.RangeType:
					rank = 1
				default:
					c.errorf(t.Dom[0].Pos(), "array domain must be a domain or range, got %s", dt)
				}
			}
			if id, ok := t.Dom[0].(*ast.Ident); ok {
				domName = id.Name
			}
		} else {
			for _, d := range t.Dom {
				dt := c.expr(d)
				if dt != nil && dt.Kind() != types.Range {
					c.errorf(d.Pos(), "array dimension must be a range, got %s", dt)
				}
			}
		}
		return &types.ArrayType{Rank: rank, Elem: elem, DomName: domName}
	case *ast.RangeType:
		return types.RangeVal
	case *ast.AtomicType:
		elem := c.resolveType(t.Elem)
		if !types.IsNumeric(elem) && elem.Kind() != types.Bool {
			c.errorf(t.AtomicPos, "atomic requires a numeric or bool element, got %s", elem)
			elem = types.IntType
		}
		return &types.AtomicType{Elem: elem}
	}
	return types.IntType
}

// --------------------------------------------------------- const folding

// evalConst evaluates e as a compile-time constant (param context).
func (c *checker) evalConst(e ast.Expr) *ConstValue {
	if e == nil {
		return nil
	}
	if v, ok := c.info.Consts[e]; ok {
		return v
	}
	switch x := e.(type) {
	case *ast.IntLit:
		return arith.Int(x.Value).Const()
	case *ast.RealLit:
		return arith.Real(x.Value).Const()
	case *ast.BoolLit:
		return arith.Bool(x.Value).Const()
	case *ast.StringLit:
		return &ConstValue{T: types.StringType, S: x.Value}
	case *ast.Ident:
		sym := c.info.SymOf(x)
		if sym == nil {
			sym = c.curScope.Lookup(x.Name)
		}
		if sym != nil && sym.ConstVal != nil {
			return sym.ConstVal
		}
		return nil
	case *ast.UnaryExpr:
		v := c.evalConst(x.X)
		if v == nil {
			return nil
		}
		return arith.UnConst(x.Op, v)
	case *ast.BinaryExpr:
		l := c.evalConst(x.X)
		r := c.evalConst(x.Y)
		if l == nil || r == nil {
			return nil
		}
		return arith.BinConst(x.Op, l, r)
	}
	return nil
}
