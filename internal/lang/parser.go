package lang

import "strconv"

// Parser is a recursive-descent parser for CLF. It pulls tokens from
// the lexer one at a time: the grammar needs one token of lookahead.
type Parser struct {
	lx  *Lexer
	tok Token // the current token
	// err is the first lexing error. From then on the current token is
	// EOF, and Parse reports err whatever the parser made of the rest.
	err error
}

// Parse lexes and parses one CLF source file. A lexing error anywhere
// in the file wins over any parse or resolve error, as if the whole
// file were lexed first: after a parse error the lexer runs on to the
// end of the file before the error is reported.
func Parse(file, src string) (*Program, error) {
	p := &Parser{lx: NewLexer(file, src)}
	p.advance()
	prog := &Program{File: file}
	var err error
	for err == nil && !p.at(TokEOF) {
		var fn *FuncDecl
		if fn, err = p.funcDecl(); err == nil {
			prog.Funcs = append(prog.Funcs, fn)
		}
	}
	for !p.at(TokEOF) {
		p.advance()
	}
	if p.err != nil {
		return nil, p.err
	}
	if err != nil {
		return nil, err
	}
	if err := Resolve(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// advance reads the next token into p.tok, turning a lexing error into
// EOF.
func (p *Parser) advance() {
	if p.err != nil {
		return
	}
	t, err := p.lx.Next()
	if err != nil {
		p.err = err
		t = Token{Kind: TokEOF}
	}
	p.tok = t
}

func (p *Parser) cur() Token  { return p.tok }
func (p *Parser) next() Token { t := p.tok; p.advance(); return t }

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }

// accept consumes the current token if it has kind k.
func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

// expect consumes a token of kind k or fails.
func (p *Parser) expect(k TokKind) (Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return Token{}, errf(p.cur().Pos, "expected %s, found %s", k, p.describe(p.cur()))
}

func (p *Parser) describe(t Token) string {
	switch t.Kind {
	case TokIdent, TokInt:
		return "'" + t.Text + "'"
	case TokString:
		return strconv.Quote(t.Text)
	default:
		return t.Kind.String()
	}
}

// funcDecl parses `fn name(params) block`.
func (p *Parser) funcDecl() (*FuncDecl, error) {
	kw, err := p.expect(TokFn)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(TokRParen) {
		if len(params) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		id, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		params = append(params, id.Text)
	}
	p.next() // ')'
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Pos: kw.Pos, Name: name.Text, Params: params, Body: body}, nil
}

// block parses `{ stmt* }`.
func (p *Parser) block() (*Block, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{Pos: lb.Pos}
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, errf(lb.Pos, "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // '}'
	return b, nil
}

// stmt parses one statement.
func (p *Parser) stmt() (Stmt, error) {
	switch t := p.cur(); t.Kind {
	case TokVar:
		p.next()
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
		init, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &VarStmt{Pos: t.Pos, Name: name.Text, Init: init}, nil

	case TokSync:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		lock, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &SyncStmt{Pos: t.Pos, Lock: lock, Body: body}, nil

	case TokIf:
		return p.ifStmt()

	case TokWhile:
		p.next()
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: t.Pos, Cond: cond, Body: body}, nil

	case TokWork:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		n, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &WorkStmt{Pos: t.Pos, N: n}, nil

	case TokJoin:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &JoinStmt{Pos: t.Pos, Thread: x}, nil

	case TokAwait:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &AwaitStmt{Pos: t.Pos, Latch: x}, nil

	case TokSignal:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &SignalStmt{Pos: t.Pos, Latch: x}, nil

	case TokWaitOn:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &WaitStmt{Pos: t.Pos, Obj: x}, nil

	case TokNotify, TokNotifyAll:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &NotifyStmt{Pos: t.Pos, Obj: x, All: t.Kind == TokNotifyAll}, nil

	case TokSend:
		p.next()
		ch, err := p.expr()
		if err != nil {
			return nil, err
		}
		var val Expr
		if p.accept(TokComma) {
			if val, err = p.expr(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &SendStmt{Pos: t.Pos, Ch: ch, Val: val}, nil

	case TokClose:
		p.next()
		ch, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &CloseStmt{Pos: t.Pos, Ch: ch}, nil

	case TokWGAdd:
		p.next()
		wg, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokComma); err != nil {
			return nil, err
		}
		n, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &WGAddStmt{Pos: t.Pos, WG: wg, N: n}, nil

	case TokWGDone:
		p.next()
		wg, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &WGDoneStmt{Pos: t.Pos, WG: wg}, nil

	case TokWGWait:
		p.next()
		wg, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &WGWaitStmt{Pos: t.Pos, WG: wg}, nil

	case TokReturn:
		p.next()
		var val Expr
		if !p.at(TokSemi) {
			var err error
			val, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ReturnStmt{Pos: t.Pos, Val: val}, nil

	case TokPrint:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		var args []Expr
		for !p.at(TokRParen) {
			if len(args) > 0 {
				if _, err := p.expect(TokComma); err != nil {
					return nil, err
				}
			}
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
		}
		p.next() // ')'
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &PrintStmt{Pos: t.Pos, Args: args}, nil

	case TokLBrace:
		return p.block()

	default:
		// Assignment (to a variable or a field) or expression statement:
		// parse an expression first and look for '='.
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if p.accept(TokAssign) {
			val, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
			switch lhs := x.(type) {
			case *Ident:
				return &AssignStmt{Pos: lhs.Pos, Name: lhs.Name, Val: val}, nil
			case *FieldExpr:
				return &FieldAssignStmt{Pos: lhs.Pos, Obj: lhs.Obj, Field: lhs.Name, Val: val}, nil
			default:
				return nil, errf(x.exprPos(), "cannot assign to this expression")
			}
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ExprStmt{Pos: x.exprPos(), X: x}, nil
	}
}

// ifStmt parses if/else-if chains.
func (p *Parser) ifStmt() (Stmt, error) {
	t := p.next() // 'if'
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	var els Stmt
	if p.accept(TokElse) {
		if p.at(TokIf) {
			els, err = p.ifStmt()
		} else {
			els, err = p.block()
		}
		if err != nil {
			return nil, err
		}
	}
	return &IfStmt{Pos: t.Pos, Cond: cond, Then: then, Else: els}, nil
}

// Expression parsing: precedence climbing.
// ||  <  &&  <  == != < <= > >=  <  + -  <  * / %  <  unary  <  primary

func (p *Parser) expr() (Expr, error) { return p.orExpr() }

func (p *Parser) orExpr() (Expr, error) {
	return p.binary(p.andExpr, TokOrOr)
}

func (p *Parser) andExpr() (Expr, error) {
	return p.binary(p.cmpExpr, TokAndAnd)
}

func (p *Parser) cmpExpr() (Expr, error) {
	return p.binary(p.addExpr, TokEq, TokNeq, TokLt, TokLe, TokGt, TokGe)
}

func (p *Parser) addExpr() (Expr, error) {
	return p.binary(p.mulExpr, TokPlus, TokMinus)
}

func (p *Parser) mulExpr() (Expr, error) {
	return p.binary(p.unaryExpr, TokStar, TokSlash, TokPercent)
}

// binary parses a left-associative chain of the given operators.
func (p *Parser) binary(sub func() (Expr, error), ops ...TokKind) (Expr, error) {
	l, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.at(op) {
				t := p.next()
				r, err := sub()
				if err != nil {
					return nil, err
				}
				l = &BinaryExpr{Pos: t.Pos, Op: op, L: l, R: r}
				matched = true
				break
			}
		}
		if !matched {
			return l, nil
		}
	}
}

func (p *Parser) unaryExpr() (Expr, error) {
	if p.at(TokBang) || p.at(TokMinus) {
		t := p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos: t.Pos, Op: t.Kind, X: x}, nil
	}
	return p.postfix()
}

// postfix parses a primary followed by field selections: a.b.c.
func (p *Parser) postfix() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.at(TokDot) {
		dot := p.next()
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		x = &FieldExpr{Pos: dot.Pos, Obj: x, Name: name.Text}
	}
	return x, nil
}

func (p *Parser) primary() (Expr, error) {
	switch t := p.cur(); t.Kind {
	case TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad integer literal %q", t.Text)
		}
		return &IntLit{Pos: t.Pos, Val: v}, nil
	case TokString:
		p.next()
		return &StrLit{Pos: t.Pos, Val: t.Text}, nil
	case TokTrue, TokFalse:
		p.next()
		return &BoolLit{Pos: t.Pos, Val: t.Kind == TokTrue}, nil
	case TokNil:
		p.next()
		return &NilLit{Pos: t.Pos}, nil
	case TokNew:
		p.next()
		typ := "Object"
		if p.at(TokIdent) {
			typ = p.next().Text
		}
		return &NewExpr{Pos: t.Pos, Type: typ}, nil
	case TokNewLatch:
		p.next()
		return &NewLatchExpr{Pos: t.Pos}, nil
	case TokNewChan:
		p.next()
		var capExpr Expr
		if p.accept(TokLParen) {
			var err error
			if capExpr, err = p.expr(); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
		}
		return &NewChanExpr{Pos: t.Pos, Cap: capExpr}, nil
	case TokNewWG:
		p.next()
		return &NewWGExpr{Pos: t.Pos}, nil
	case TokRecv:
		p.next()
		ch, err := p.postfix()
		if err != nil {
			return nil, err
		}
		return &RecvExpr{Pos: t.Pos, Ch: ch}, nil
	case TokSpawn:
		p.next()
		callee, err := p.primary()
		if err != nil {
			return nil, err
		}
		call, ok := callee.(*CallExpr)
		if !ok {
			return nil, errf(t.Pos, "spawn requires a function call")
		}
		return &SpawnExpr{Pos: t.Pos, Call: call}, nil
	case TokIdent:
		p.next()
		if p.at(TokLParen) {
			p.next()
			var args []Expr
			for !p.at(TokRParen) {
				if len(args) > 0 {
					if _, err := p.expect(TokComma); err != nil {
						return nil, err
					}
				}
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			p.next() // ')'
			return &CallExpr{Pos: t.Pos, Name: t.Text, Args: args}, nil
		}
		return &Ident{Pos: t.Pos, Name: t.Text}, nil
	case TokLParen:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, errf(t.Pos, "expected expression, found %s", p.describe(t))
	}
}
