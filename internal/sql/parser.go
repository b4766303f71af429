package sql

import (
	"fmt"
	"strconv"
	"strings"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// Parse parses one SQL statement (a trailing semicolon is permitted).
func Parse(src string) (Stmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(TokOp, ";")
	if p.peek().Kind != TokEOF {
		return nil, fmt.Errorf("sql: unexpected trailing %s", p.peek())
	}
	return st, nil
}

type parser struct {
	toks []Token
	i    int
	// nparams counts `?` placeholders seen so far; placeholders are numbered
	// 1..nparams in source order.
	nparams int
}

func (p *parser) peek() Token { return p.toks[p.i] }
func (p *parser) at(k TokKind, text string) bool {
	t := p.peek()
	return t.Kind == k && (text == "" || t.Text == text)
}
func (p *parser) advance() Token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}
func (p *parser) accept(k TokKind, text string) bool {
	if p.at(k, text) {
		p.advance()
		return true
	}
	return false
}
func (p *parser) expect(k TokKind, text string) (Token, error) {
	if !p.at(k, text) {
		want := text
		if want == "" {
			want = "identifier"
		}
		return Token{}, fmt.Errorf("sql: expected %s, found %s at offset %d", want, p.peek(), p.peek().Pos)
	}
	return p.advance(), nil
}

// atWord reports whether the next token is the given contextual word: an
// identifier spelled like it (case-insensitive). Words that are only
// meaningful inside one clause (PARTITION, RANGE, LESS, THAN, MAXVALUE)
// are matched this way instead of being reserved globally.
func (p *parser) atWord(word string) bool {
	t := p.peek()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, word)
}

func (p *parser) acceptWord(word string) bool {
	if p.atWord(word) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectWord(word string) (Token, error) {
	if !p.atWord(word) {
		return Token{}, fmt.Errorf("sql: expected %s, found %s at offset %d", word, p.peek(), p.peek().Pos)
	}
	return p.advance(), nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.at(TokKeyword, "EXPLAIN"):
		p.advance()
		if !p.at(TokKeyword, "SELECT") && !p.at(TokKeyword, "APPROX") {
			return nil, fmt.Errorf("sql: EXPLAIN supports SELECT statements only, found %s", p.peek())
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Inner: sel}, nil
	case p.at(TokKeyword, "SELECT"), p.at(TokKeyword, "APPROX"):
		return p.parseSelect()
	case p.at(TokKeyword, "CREATE"):
		return p.parseCreateTable()
	case p.at(TokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(TokKeyword, "FIT"):
		return p.parseFitModel()
	case p.at(TokKeyword, "SHOW"):
		p.advance()
		if _, err := p.expect(TokKeyword, "MODELS"); err != nil {
			return nil, err
		}
		return &ShowModelsStmt{}, nil
	case p.at(TokKeyword, "DROP"):
		p.advance()
		if p.accept(TokKeyword, "TABLE") {
			name, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			return &DropTableStmt{Name: name.Text}, nil
		}
		if _, err := p.expect(TokKeyword, "MODEL"); err != nil {
			return nil, err
		}
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		return &DropModelStmt{Name: name.Text}, nil
	case p.at(TokKeyword, "REFIT"):
		p.advance()
		if _, err := p.expect(TokKeyword, "MODEL"); err != nil {
			return nil, err
		}
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		return &RefitModelStmt{Name: name.Text}, nil
	}
	return nil, fmt.Errorf("sql: unsupported statement starting with %s", p.peek())
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	st := &SelectStmt{Limit: -1}
	if p.accept(TokKeyword, "APPROX") {
		st.Approx = true
	}
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	for {
		if p.accept(TokOp, "*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(TokKeyword, "AS") {
				a, err := p.expect(TokIdent, "")
				if err != nil {
					return nil, err
				}
				item.Alias = a.Text
			} else if p.at(TokIdent, "") {
				item.Alias = p.advance().Text
			}
			st.Items = append(st.Items, item)
		}
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	st.From = from.Text
	for p.at(TokKeyword, "JOIN") || p.at(TokKeyword, "INNER") {
		p.accept(TokKeyword, "INNER")
		if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
			return nil, err
		}
		tbl, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, JoinClause{Table: tbl.Text, On: on})
	}
	if p.accept(TokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			k := OrderKey{Expr: e}
			if p.accept(TokKeyword, "DESC") {
				k.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			st.OrderBy = append(st.OrderBy, k)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		n, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		lim, err := strconv.Atoi(n.Text)
		if err != nil || lim < 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", n.Text)
		}
		st.Limit = lim
	}
	if p.accept(TokKeyword, "WITH") {
		if _, err := p.expect(TokKeyword, "ERROR"); err != nil {
			return nil, err
		}
		st.WithError = true
	}
	return st, nil
}

func (p *parser) parseCreateTable() (*CreateTableStmt, error) {
	p.advance() // CREATE
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{table.Decl{Name: name.Text}}
	for {
		cn, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		t := p.advance()
		ct, err := typeFromKeyword(t)
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, table.ColumnDef{Name: cn.Text, Type: ct})
		if p.accept(TokOp, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	if p.atWord("PARTITION") {
		if err := p.parsePartitionBy(&st.Decl); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// parsePartitionBy parses
//
//	PARTITION BY RANGE (col) (
//	    PARTITION p0 VALUES LESS THAN (10),
//	    PARTITION p1 VALUES LESS THAN (MAXVALUE)
//	)
//
// into d's partition column and partitions.
func (p *parser) parsePartitionBy(d *table.Decl) error {
	p.advance() // PARTITION
	if _, err := p.expect(TokKeyword, "BY"); err != nil {
		return err
	}
	if _, err := p.expectWord("RANGE"); err != nil {
		return err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return err
	}
	col, err := p.expect(TokIdent, "")
	if err != nil {
		return err
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return err
	}
	d.PartCol = col.Text
	for {
		if _, err := p.expectWord("PARTITION"); err != nil {
			return err
		}
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return err
		}
		if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
			return err
		}
		if _, err := p.expectWord("LESS"); err != nil {
			return err
		}
		if _, err := p.expectWord("THAN"); err != nil {
			return err
		}
		if _, err := p.expect(TokOp, "("); err != nil {
			return err
		}
		def := table.RangePartition{Name: name.Text}
		if p.acceptWord("MAXVALUE") {
			def.Max = true
		} else {
			neg := p.accept(TokOp, "-")
			num, err := p.expect(TokNumber, "")
			if err != nil {
				return err
			}
			v, err := strconv.ParseFloat(num.Text, 64)
			if err != nil {
				return fmt.Errorf("sql: bad partition bound %q", num.Text)
			}
			if neg {
				v = -v
			}
			def.Upper = v
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return err
		}
		d.Parts = append(d.Parts, def)
		if p.accept(TokOp, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return err
	}
	return nil
}

func typeFromKeyword(t Token) (storage.ColType, error) {
	if t.Kind != TokKeyword {
		return 0, fmt.Errorf("sql: expected a type, found %s at offset %d", t, t.Pos)
	}
	switch t.Text {
	case "BIGINT", "INT", "INTEGER":
		return storage.TypeInt64, nil
	case "DOUBLE", "FLOAT":
		return storage.TypeFloat64, nil
	case "VARCHAR", "TEXT":
		return storage.TypeString, nil
	case "BOOLEAN", "BOOL":
		return storage.TypeBool, nil
	}
	return 0, fmt.Errorf("sql: unknown type %s at offset %d", t, t.Pos)
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	p.advance() // INSERT
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name.Text}
	for {
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		var row []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	return st, nil
}

func (p *parser) parseFitModel() (*FitModelStmt, error) {
	p.advance() // FIT
	if _, err := p.expect(TokKeyword, "MODEL"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "ON"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "AS"); err != nil {
		return nil, err
	}
	formula, err := p.expect(TokString, "")
	if err != nil {
		return nil, err
	}
	st := &FitModelStmt{Name: name.Text, Table: tbl.Text, Formula: formula.Text, Start: map[string]float64{}}
	for {
		switch {
		case p.accept(TokKeyword, "INPUTS"):
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			for {
				in, err := p.expect(TokIdent, "")
				if err != nil {
					return nil, err
				}
				st.Inputs = append(st.Inputs, in.Text)
				if !p.accept(TokOp, ",") {
					break
				}
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
		case p.accept(TokKeyword, "GROUP"):
			if _, err := p.expect(TokKeyword, "BY"); err != nil {
				return nil, err
			}
			g, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			st.GroupBy = g.Text
		case p.accept(TokKeyword, "WHERE"):
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Where = e
		case p.accept(TokKeyword, "START"):
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			for {
				pn, err := p.expect(TokIdent, "")
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokOp, "="); err != nil {
					return nil, err
				}
				neg := p.accept(TokOp, "-")
				num, err := p.expect(TokNumber, "")
				if err != nil {
					return nil, err
				}
				v, err := strconv.ParseFloat(num.Text, 64)
				if err != nil {
					return nil, fmt.Errorf("sql: bad start value %q", num.Text)
				}
				if neg {
					v = -v
				}
				st.Start[pn.Text] = v
				if !p.accept(TokOp, ",") {
					break
				}
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
		case p.accept(TokKeyword, "METHOD"):
			m, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			mm := strings.ToLower(m.Text)
			if mm != "lm" && mm != "gn" {
				return nil, fmt.Errorf("sql: METHOD must be LM or GN, got %q", m.Text)
			}
			st.Method = mm
		default:
			return st, nil
		}
	}
}

// --- embedded scalar expressions ---
//
// The expression grammar mirrors internal/expr but consumes SQL tokens so
// that clause keywords (FROM, GROUP, …) terminate expressions naturally.

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &expr.Binary{Op: expr.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &expr.Binary{Op: expr.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: expr.OpNot, X: x}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]expr.Op{
	"=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt,
	"<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parseCmp() (expr.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.Kind == TokOp {
		if op, ok := cmpOps[t.Text]; ok {
			p.advance()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &expr.Binary{Op: op, L: l, R: r}, nil
		}
	}
	if p.accept(TokKeyword, "IS") {
		neg := p.accept(TokKeyword, "NOT")
		if _, err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &expr.IsNullExpr{X: l, Negate: neg}, nil
	}
	if p.accept(TokKeyword, "BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: expr.OpAnd,
			L: &expr.Binary{Op: expr.OpGe, L: l, R: lo},
			R: &expr.Binary{Op: expr.OpLe, L: l, R: hi},
		}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (expr.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokOp || (t.Text != "+" && t.Text != "-") {
			return l, nil
		}
		p.advance()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		op := expr.OpAdd
		if t.Text == "-" {
			op = expr.OpSub
		}
		l = &expr.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (expr.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokOp || (t.Text != "*" && t.Text != "/" && t.Text != "%") {
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		var op expr.Op
		switch t.Text {
		case "*":
			op = expr.OpMul
		case "/":
			op = expr.OpDiv
		default:
			op = expr.OpMod
		}
		l = &expr.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.accept(TokOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: expr.OpNeg, X: x}, nil
	}
	p.accept(TokOp, "+")
	return p.parsePow()
}

func (p *parser) parsePow() (expr.Expr, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.accept(TokOp, "^") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: expr.OpPow, L: base, R: e}, nil
	}
	return base, nil
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.advance()
		if !strings.ContainsAny(t.Text, ".eE") {
			if i, err := strconv.ParseInt(t.Text, 10, 64); err == nil {
				return &expr.Lit{Val: expr.Int(i)}, nil
			}
		}
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q at offset %d", t.Text, t.Pos)
		}
		return &expr.Lit{Val: expr.Float(f)}, nil
	case TokString:
		p.advance()
		return &expr.Lit{Val: expr.Str(t.Text)}, nil
	case TokKeyword:
		switch t.Text {
		case "TRUE":
			p.advance()
			return &expr.Lit{Val: expr.Bool(true)}, nil
		case "FALSE":
			p.advance()
			return &expr.Lit{Val: expr.Bool(false)}, nil
		case "NULL":
			p.advance()
			return &expr.Lit{Val: expr.Null()}, nil
		}
		return nil, fmt.Errorf("sql: unexpected %s in expression at offset %d", t, t.Pos)
	case TokIdent:
		p.advance()
		name := t.Text
		// Qualified name a.b.
		if p.at(TokOp, ".") {
			p.advance()
			f, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			name = name + "." + f.Text
		}
		if p.accept(TokOp, "(") {
			var args []expr.Expr
			if p.accept(TokOp, "*") {
				// count(*) — encode as zero-arg call.
				if _, err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
				return &expr.Call{Name: strings.ToLower(name)}, nil
			}
			if !p.at(TokOp, ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.accept(TokOp, ",") {
						break
					}
				}
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &expr.Call{Name: strings.ToLower(name), Args: args}, nil
		}
		return &expr.Ident{Name: name}, nil
	case TokOp:
		if t.Text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "?" {
			p.advance()
			p.nparams++
			return &expr.Param{Index: p.nparams}, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected %s in expression at offset %d", t, t.Pos)
}
