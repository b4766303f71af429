// Package sql implements the query language surface of the engine: a
// parser and AST for a SQL subset (SELECT with WHERE / GROUP BY / HAVING /
// ORDER BY / LIMIT / inner JOIN, CREATE TABLE, INSERT) extended with the
// paper's model statements: FIT MODEL captures a user model server-side,
// APPROX SELECT routes a query through the model store instead of the raw
// data, and WITH ERROR annotates approximate answers with error bounds.
// Tokens and every expression are read by internal/expr's one grammar,
// under the statement syntax (clause words reserved, "--" comments).
package sql

import (
	"fmt"
	"strconv"
	"strings"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// statement is the syntax of statement text: the expression keywords plus
// the clause words below are reserved, and "--" starts a line comment.
//
// PARTITION, RANGE, LESS, THAN and MAXVALUE are deliberately NOT reserved:
// they appear only in the PARTITION BY clause of CREATE TABLE, where the
// parser matches them as contextual words (parser.atWord), so pre-existing
// schemas with columns named "range" or "partition" keep working.
var statement = expr.NewSyntax("sql", true,
	"SELECT", "APPROX", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
	"ASC", "DESC", "LIMIT", "AS", "JOIN", "INNER", "ON",
	"CREATE", "TABLE", "INSERT", "INTO", "VALUES",
	"FIT", "MODEL", "MODELS", "SHOW", "DROP",
	"START", "METHOD", "INPUTS", "WITH", "ERROR",
	"BIGINT", "DOUBLE", "VARCHAR", "BOOLEAN",
	"INT", "INTEGER", "FLOAT", "TEXT", "BOOL",
	"EXACT", "REFIT", "EXPLAIN")

// Token is one lexical token of statement text.
type Token = expr.Token

// Lex tokenizes a statement.
func Lex(src string) ([]Token, error) { return statement.Lex(src) }

// Parse parses one SQL statement (a trailing semicolon is permitted).
func Parse(src string) (Stmt, error) {
	ep, err := statement.NewParser(src)
	if err != nil {
		return nil, err
	}
	p := &parser{ep}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.Accept(expr.TokOp, ";")
	if p.Peek().Kind != expr.TokEOF {
		return nil, fmt.Errorf("sql: unexpected trailing %s", p.Peek())
	}
	return st, nil
}

// parser reads a statement; the embedded expr.Parser reads its tokens and
// every expression in it.
type parser struct{ *expr.Parser }

// atWord reports whether the next token is the given contextual word: an
// identifier spelled like it (case-insensitive). Words that are only
// meaningful inside one clause (PARTITION, RANGE, LESS, THAN, MAXVALUE)
// are matched this way instead of being reserved globally.
func (p *parser) atWord(word string) bool {
	t := p.Peek()
	return t.Kind == expr.TokIdent && strings.EqualFold(t.Text, word)
}

func (p *parser) acceptWord(word string) bool {
	if p.atWord(word) {
		p.Advance()
		return true
	}
	return false
}

func (p *parser) expectWord(word string) (Token, error) {
	if !p.atWord(word) {
		return Token{}, fmt.Errorf("sql: expected %s, found %s at offset %d", word, p.Peek(), p.Peek().Pos)
	}
	return p.Advance(), nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.At(expr.TokKeyword, "EXPLAIN"):
		p.Advance()
		if !p.At(expr.TokKeyword, "SELECT") && !p.At(expr.TokKeyword, "APPROX") {
			return nil, fmt.Errorf("sql: EXPLAIN supports SELECT statements only, found %s", p.Peek())
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Inner: sel}, nil
	case p.At(expr.TokKeyword, "SELECT"), p.At(expr.TokKeyword, "APPROX"):
		return p.parseSelect()
	case p.At(expr.TokKeyword, "CREATE"):
		return p.parseCreateTable()
	case p.At(expr.TokKeyword, "INSERT"):
		return p.parseInsert()
	case p.At(expr.TokKeyword, "FIT"):
		return p.parseFitModel()
	case p.At(expr.TokKeyword, "SHOW"):
		p.Advance()
		if _, err := p.Expect(expr.TokKeyword, "MODELS"); err != nil {
			return nil, err
		}
		return &ShowModelsStmt{}, nil
	case p.At(expr.TokKeyword, "DROP"):
		p.Advance()
		if p.Accept(expr.TokKeyword, "TABLE") {
			name, err := p.Expect(expr.TokIdent, "")
			if err != nil {
				return nil, err
			}
			return &DropTableStmt{Name: name.Text}, nil
		}
		if _, err := p.Expect(expr.TokKeyword, "MODEL"); err != nil {
			return nil, err
		}
		name, err := p.Expect(expr.TokIdent, "")
		if err != nil {
			return nil, err
		}
		return &DropModelStmt{Name: name.Text}, nil
	case p.At(expr.TokKeyword, "REFIT"):
		p.Advance()
		if _, err := p.Expect(expr.TokKeyword, "MODEL"); err != nil {
			return nil, err
		}
		name, err := p.Expect(expr.TokIdent, "")
		if err != nil {
			return nil, err
		}
		return &RefitModelStmt{Name: name.Text}, nil
	}
	return nil, fmt.Errorf("sql: unsupported statement starting with %s", p.Peek())
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	st := &SelectStmt{Limit: -1}
	if p.Accept(expr.TokKeyword, "APPROX") {
		st.Approx = true
	}
	if _, err := p.Expect(expr.TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	for {
		if p.Accept(expr.TokOp, "*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.Accept(expr.TokKeyword, "AS") {
				a, err := p.Expect(expr.TokIdent, "")
				if err != nil {
					return nil, err
				}
				item.Alias = a.Text
			} else if p.At(expr.TokIdent, "") {
				item.Alias = p.Advance().Text
			}
			st.Items = append(st.Items, item)
		}
		if !p.Accept(expr.TokOp, ",") {
			break
		}
	}
	if _, err := p.Expect(expr.TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.Expect(expr.TokIdent, "")
	if err != nil {
		return nil, err
	}
	st.From = from.Text
	for p.At(expr.TokKeyword, "JOIN") || p.At(expr.TokKeyword, "INNER") {
		p.Accept(expr.TokKeyword, "INNER")
		if _, err := p.Expect(expr.TokKeyword, "JOIN"); err != nil {
			return nil, err
		}
		tbl, err := p.Expect(expr.TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(expr.TokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.Expr()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, JoinClause{Table: tbl.Text, On: on})
	}
	if p.Accept(expr.TokKeyword, "WHERE") {
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.Accept(expr.TokKeyword, "GROUP") {
		if _, err := p.Expect(expr.TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.Accept(expr.TokOp, ",") {
				break
			}
		}
	}
	if p.Accept(expr.TokKeyword, "HAVING") {
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.Accept(expr.TokKeyword, "ORDER") {
		if _, err := p.Expect(expr.TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			k := OrderKey{Expr: e}
			if p.Accept(expr.TokKeyword, "DESC") {
				k.Desc = true
			} else {
				p.Accept(expr.TokKeyword, "ASC")
			}
			st.OrderBy = append(st.OrderBy, k)
			if !p.Accept(expr.TokOp, ",") {
				break
			}
		}
	}
	if p.Accept(expr.TokKeyword, "LIMIT") {
		n, err := p.Expect(expr.TokNumber, "")
		if err != nil {
			return nil, err
		}
		lim, err := strconv.Atoi(n.Text)
		if err != nil || lim < 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", n.Text)
		}
		st.Limit = lim
	}
	if p.Accept(expr.TokKeyword, "WITH") {
		if _, err := p.Expect(expr.TokKeyword, "ERROR"); err != nil {
			return nil, err
		}
		st.WithError = true
	}
	return st, nil
}

func (p *parser) parseCreateTable() (*CreateTableStmt, error) {
	p.Advance() // CREATE
	if _, err := p.Expect(expr.TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.Expect(expr.TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(expr.TokOp, "("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{table.Decl{Name: name.Text}}
	for {
		cn, err := p.Expect(expr.TokIdent, "")
		if err != nil {
			return nil, err
		}
		t := p.Advance()
		ct, err := typeFromKeyword(t)
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, table.ColumnDef{Name: cn.Text, Type: ct})
		if p.Accept(expr.TokOp, ",") {
			continue
		}
		break
	}
	if _, err := p.Expect(expr.TokOp, ")"); err != nil {
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
	p.Advance() // PARTITION
	if _, err := p.Expect(expr.TokKeyword, "BY"); err != nil {
		return err
	}
	if _, err := p.expectWord("RANGE"); err != nil {
		return err
	}
	if _, err := p.Expect(expr.TokOp, "("); err != nil {
		return err
	}
	col, err := p.Expect(expr.TokIdent, "")
	if err != nil {
		return err
	}
	if _, err := p.Expect(expr.TokOp, ")"); err != nil {
		return err
	}
	if _, err := p.Expect(expr.TokOp, "("); err != nil {
		return err
	}
	d.PartCol = col.Text
	for {
		if _, err := p.expectWord("PARTITION"); err != nil {
			return err
		}
		name, err := p.Expect(expr.TokIdent, "")
		if err != nil {
			return err
		}
		if _, err := p.Expect(expr.TokKeyword, "VALUES"); err != nil {
			return err
		}
		if _, err := p.expectWord("LESS"); err != nil {
			return err
		}
		if _, err := p.expectWord("THAN"); err != nil {
			return err
		}
		if _, err := p.Expect(expr.TokOp, "("); err != nil {
			return err
		}
		def := table.RangePartition{Name: name.Text}
		if p.acceptWord("MAXVALUE") {
			def.Max = true
		} else {
			neg := p.Accept(expr.TokOp, "-")
			num, err := p.Expect(expr.TokNumber, "")
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
		if _, err := p.Expect(expr.TokOp, ")"); err != nil {
			return err
		}
		d.Parts = append(d.Parts, def)
		if p.Accept(expr.TokOp, ",") {
			continue
		}
		break
	}
	if _, err := p.Expect(expr.TokOp, ")"); err != nil {
		return err
	}
	return nil
}

func typeFromKeyword(t Token) (storage.ColType, error) {
	if t.Kind != expr.TokKeyword {
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
	p.Advance() // INSERT
	if _, err := p.Expect(expr.TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.Expect(expr.TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(expr.TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name.Text}
	for {
		if _, err := p.Expect(expr.TokOp, "("); err != nil {
			return nil, err
		}
		var row []expr.Expr
		for {
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.Accept(expr.TokOp, ",") {
				break
			}
		}
		if _, err := p.Expect(expr.TokOp, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.Accept(expr.TokOp, ",") {
			break
		}
	}
	return st, nil
}

func (p *parser) parseFitModel() (*FitModelStmt, error) {
	p.Advance() // FIT
	if _, err := p.Expect(expr.TokKeyword, "MODEL"); err != nil {
		return nil, err
	}
	name, err := p.Expect(expr.TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(expr.TokKeyword, "ON"); err != nil {
		return nil, err
	}
	tbl, err := p.Expect(expr.TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(expr.TokKeyword, "AS"); err != nil {
		return nil, err
	}
	formula, err := p.Expect(expr.TokString, "")
	if err != nil {
		return nil, err
	}
	st := &FitModelStmt{Name: name.Text, Table: tbl.Text, Formula: formula.Text, Start: map[string]float64{}}
	for {
		switch {
		case p.Accept(expr.TokKeyword, "INPUTS"):
			if _, err := p.Expect(expr.TokOp, "("); err != nil {
				return nil, err
			}
			for {
				in, err := p.Expect(expr.TokIdent, "")
				if err != nil {
					return nil, err
				}
				st.Inputs = append(st.Inputs, in.Text)
				if !p.Accept(expr.TokOp, ",") {
					break
				}
			}
			if _, err := p.Expect(expr.TokOp, ")"); err != nil {
				return nil, err
			}
		case p.Accept(expr.TokKeyword, "GROUP"):
			if _, err := p.Expect(expr.TokKeyword, "BY"); err != nil {
				return nil, err
			}
			g, err := p.Expect(expr.TokIdent, "")
			if err != nil {
				return nil, err
			}
			st.GroupBy = g.Text
		case p.Accept(expr.TokKeyword, "WHERE"):
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			st.Where = e
		case p.Accept(expr.TokKeyword, "START"):
			if _, err := p.Expect(expr.TokOp, "("); err != nil {
				return nil, err
			}
			for {
				pn, err := p.Expect(expr.TokIdent, "")
				if err != nil {
					return nil, err
				}
				if _, err := p.Expect(expr.TokOp, "="); err != nil {
					return nil, err
				}
				neg := p.Accept(expr.TokOp, "-")
				num, err := p.Expect(expr.TokNumber, "")
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
				if !p.Accept(expr.TokOp, ",") {
					break
				}
			}
			if _, err := p.Expect(expr.TokOp, ")"); err != nil {
				return nil, err
			}
		case p.Accept(expr.TokKeyword, "METHOD"):
			m, err := p.Expect(expr.TokIdent, "")
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
