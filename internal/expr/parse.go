package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Syntax is what tells apart the texts the one grammar reads: the words it
// reserves and whether "--" starts a line comment. Statement text
// (internal/sql) reserves its clause words as well and reads comments;
// formula text (Parse) reserves only the expression keywords and reads
// none, so a formula "a--b" is a - (-b).
type Syntax struct {
	prefix   string // starts every error message: "sql" or "expr"
	reserved map[string]bool
	comments bool
}

// NewSyntax returns a syntax whose errors start with prefix. It reserves
// the expression keywords (AND OR NOT TRUE FALSE NULL IS IN BETWEEN) plus
// words, given in upper case; a reserved word lexes as a keyword in any
// case and never as a name.
func NewSyntax(prefix string, comments bool, words ...string) *Syntax {
	s := &Syntax{prefix: prefix, reserved: map[string]bool{}, comments: comments}
	for _, w := range append([]string{"AND", "OR", "NOT", "TRUE", "FALSE", "NULL", "IS", "IN", "BETWEEN"}, words...) {
		s.reserved[w] = true
	}
	return s
}

// formula is the syntax Parse reads: FIT MODEL formulas, strawman
// predicates and the where/formula text a captured law is persisted in.
var formula = NewSyntax("expr", false)

// TokKind enumerates lexical token kinds.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp
)

var kindNames = [...]string{TokEOF: "end of input", TokIdent: "identifier", TokKeyword: "keyword",
	TokNumber: "number", TokString: "string", TokOp: "operator"}

// Token is one lexical token with its source offset.
type Token struct {
	Kind TokKind
	Text string // keywords are upper-cased; names keep their spelling; strings are unquoted
	Pos  int
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return kindNames[TokEOF]
	}
	return fmt.Sprintf("%q", t.Text)
}

// Lex splits src into tokens, the last of which is TokEOF. Strings are
// single-quoted with a doubled quote standing for one; "!=" lexes as "<>".
// A name is UTF-8 letters, '_' and ASCII digits; invalid UTF-8 outside a
// string is refused.
func (s *Syntax) Lex(src string) ([]Token, error) {
	var toks []Token
	pos := 0
	for pos < len(src) {
		c, start := src[pos], pos
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pos++
		case s.comments && strings.HasPrefix(src[pos:], "--"):
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
		case isDigit(c) || (c == '.' && pos+1 < len(src) && isDigit(src[pos+1])):
			seenDot, seenExp := false, false
		number:
			for pos < len(src) {
				d := src[pos]
				switch {
				case isDigit(d):
					pos++
				case d == '.' && !seenDot && !seenExp:
					seenDot = true
					pos++
				case (d == 'e' || d == 'E') && !seenExp:
					seenExp = true
					pos++
					if pos < len(src) && (src[pos] == '+' || src[pos] == '-') {
						pos++
					}
				default:
					break number
				}
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[start:pos], Pos: start})
		case c == '\'':
			var sb strings.Builder
			for pos++; ; pos++ {
				if pos >= len(src) {
					return nil, fmt.Errorf("%s: unterminated string at offset %d", s.prefix, start)
				}
				if src[pos] == '\'' {
					if pos+1 >= len(src) || src[pos+1] != '\'' {
						break
					}
					pos++
				}
				sb.WriteByte(src[pos])
			}
			pos++ // closing quote
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start})
		case identRune(src[pos:], false) > 0:
			for n := identRune(src[pos:], true); n > 0; n = identRune(src[pos:], true) {
				pos += n
			}
			word := src[start:pos]
			if up := upperASCII(word); s.reserved[up] {
				toks = append(toks, Token{Kind: TokKeyword, Text: up, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		default:
			op := ""
			if pos+1 < len(src) {
				switch two := src[pos : pos+2]; two {
				case "<=", ">=", "<>":
					op = two
				case "!=":
					op = "<>"
				}
			}
			if op == "" && strings.IndexByte("+-*/%^(),=<>;.?", c) >= 0 {
				op = src[pos : pos+1]
			}
			if op == "" {
				r, n := utf8.DecodeRuneInString(src[pos:])
				if r == utf8.RuneError && n == 1 {
					return nil, fmt.Errorf("%s: invalid UTF-8 at offset %d", s.prefix, pos)
				}
				return nil, fmt.Errorf("%s: unexpected character %q at offset %d", s.prefix, r, pos)
			}
			pos += len(op)
			toks = append(toks, Token{Kind: TokOp, Text: op, Pos: start})
		}
	}
	return append(toks, Token{Kind: TokEOF, Pos: len(src)}), nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// identRune returns the byte length of the name rune src starts with, 0 if
// it starts with none: a letter in UTF-8 or '_', or an ASCII digit after
// the first. Invalid UTF-8 is no letter.
func identRune(src string, part bool) int {
	r, n := utf8.DecodeRuneInString(src)
	if r == '_' || unicode.IsLetter(r) || (part && n == 1 && isDigit(src[0])) {
		return n
	}
	return 0
}

// upperASCII upper-cases the ASCII letters of a name for the reserved-word
// check and keeps every other rune, so no other letter (the dotless ı of
// "ın") spells a reserved word.
func upperASCII(s string) string {
	return strings.Map(func(r rune) rune {
		if 'a' <= r && r <= 'z' {
			return r - 'a' + 'A'
		}
		return r
	}, s)
}

// Parser reads one token slice. internal/sql's statement parser holds one,
// reads each clause with Peek/At/Advance/Accept/Expect and calls Expr
// wherever a clause takes an expression, so an expression ends at the
// first token it cannot continue with (a clause keyword, a comma).
type Parser struct {
	syn  *Syntax
	toks []Token
	i    int
	// params counts the `?` placeholders read so far; they are numbered
	// 1..params in source order.
	params int
}

// NewParser lexes src and returns a parser at its first token.
func (s *Syntax) NewParser(src string) (*Parser, error) {
	toks, err := s.Lex(src)
	if err != nil {
		return nil, err
	}
	return &Parser{syn: s, toks: toks}, nil
}

// Peek returns the next token without consuming it.
func (p *Parser) Peek() Token { return p.toks[p.i] }

// At reports whether the next token has kind k and, unless text is empty,
// that text.
func (p *Parser) At(k TokKind, text string) bool {
	t := p.Peek()
	return t.Kind == k && (text == "" || t.Text == text)
}

// Advance consumes and returns the next token; at the end it keeps
// returning TokEOF.
func (p *Parser) Advance() Token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

// Accept consumes the next token when At(k, text).
func (p *Parser) Accept(k TokKind, text string) bool {
	if p.At(k, text) {
		p.Advance()
		return true
	}
	return false
}

// Expect consumes and returns the next token when At(k, text) and fails
// otherwise.
func (p *Parser) Expect(k TokKind, text string) (Token, error) {
	if !p.At(k, text) {
		want := text
		if want == "" {
			want = kindNames[k]
		}
		return Token{}, fmt.Errorf("%s: expected %s, found %s at offset %d", p.syn.prefix, want, p.Peek(), p.Peek().Pos)
	}
	return p.Advance(), nil
}

// Parse parses formula text into an expression tree: a FIT MODEL formula's
// sides, a strawman predicate, a captured law's persisted where/formula.
// Statement text goes through the same grammar (Parser.Expr); only the
// syntax differs.
//
// Grammar (precedence from lowest to highest):
//
//	or     := and (OR and)*
//	and    := not (AND not)*
//	not    := NOT not | cmp
//	cmp    := add ((= | <> | < | <= | > | >=) add)?
//	        | add IS [NOT] NULL | add BETWEEN add AND add
//	add    := mul ((+|-) mul)*
//	mul    := unary ((*|/|%) unary)*
//	unary  := - unary | + unary | pow
//	pow    := primary (^ unary)?          (right associative)
//	primary:= number | string | TRUE | FALSE | NULL | ? | (or)
//	        | name | name(*) | name([or (, or)*])
//	name   := ident [. ident]
//
// name(*) is a call without arguments (count(*)). A `?` placeholder is a
// statement parameter; formula text has none, so Parse refuses it.
func Parse(src string) (Expr, error) {
	p, err := formula.NewParser(src)
	if err != nil {
		return nil, err
	}
	for _, t := range p.toks {
		if t.Kind == TokOp && t.Text == "?" {
			return nil, fmt.Errorf("expr: placeholder ? at offset %d: only a statement takes parameters", t.Pos)
		}
	}
	e, err := p.Expr()
	if err != nil {
		return nil, err
	}
	if t := p.Peek(); t.Kind != TokEOF {
		return nil, fmt.Errorf("expr: unexpected trailing %s at offset %d", t, t.Pos)
	}
	return e, nil
}

// MustParse is Parse that panics on error; for tests and package literals.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Expr parses one expression (the `or` rule of Parse's grammar).
func (p *Parser) Expr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.Accept(TokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.Accept(TokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.Accept(TokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: OpNot, X: x}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]Op{"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.Peek(); t.Kind == TokOp {
		if op, ok := cmpOps[t.Text]; ok {
			p.Advance()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	if p.Accept(TokKeyword, "IS") {
		neg := p.Accept(TokKeyword, "NOT")
		if _, err := p.Expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: l, Negate: neg}, nil
	}
	if p.Accept(TokKeyword, "BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Binary{
			Op: OpAnd,
			L:  &Binary{Op: OpGe, L: l, R: lo},
			R:  &Binary{Op: OpLe, L: l, R: hi},
		}, nil
	}
	return l, nil
}

var arithOps = map[string]Op{"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpMod}

func (p *Parser) parseAdd() (Expr, error) { return p.parseChain("+-", p.parseMul) }
func (p *Parser) parseMul() (Expr, error) { return p.parseChain("*/%", p.parseUnary) }

// parseChain reads a left-associative chain of the one-character operators
// in ops, each operand read by next.
func (p *Parser) parseChain(ops string, next func() (Expr, error)) (Expr, error) {
	l, err := next()
	if err != nil {
		return nil, err
	}
	for t := p.Peek(); t.Kind == TokOp && strings.Contains(ops, t.Text); t = p.Peek() {
		p.Advance()
		r, err := next()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: arithOps[t.Text], L: l, R: r}
	}
	return l, nil
}

// parseUnary reads the unary and pow rules.
func (p *Parser) parseUnary() (Expr, error) {
	if p.Accept(TokOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: OpNeg, X: x}, nil
	}
	if p.Accept(TokOp, "+") {
		return p.parseUnary()
	}
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.Accept(TokOp, "^") {
		exp, err := p.parseUnary() // right associative, allows -x exponents
		if err != nil {
			return nil, err
		}
		return &Binary{Op: OpPow, L: base, R: exp}, nil
	}
	return base, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.Advance()
	switch {
	case t.Kind == TokNumber:
		if !strings.ContainsAny(t.Text, ".eE") {
			if i, err := strconv.ParseInt(t.Text, 10, 64); err == nil {
				return &Lit{Val: Int(i)}, nil
			}
		}
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad number %q at offset %d", p.syn.prefix, t.Text, t.Pos)
		}
		return &Lit{Val: Float(f)}, nil
	case t.Kind == TokString:
		return &Lit{Val: Str(t.Text)}, nil
	case t.Kind == TokKeyword && t.Text == "TRUE":
		return &Lit{Val: Bool(true)}, nil
	case t.Kind == TokKeyword && t.Text == "FALSE":
		return &Lit{Val: Bool(false)}, nil
	case t.Kind == TokKeyword && t.Text == "NULL":
		return &Lit{Val: Null()}, nil
	case t.Kind == TokOp && t.Text == "?":
		p.params++
		return &Param{Index: p.params}, nil
	case t.Kind == TokOp && t.Text == "(":
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		_, err = p.Expect(TokOp, ")")
		return e, err
	case t.Kind == TokIdent:
		return p.parseName(t.Text)
	}
	return nil, fmt.Errorf("%s: unexpected %s in expression at offset %d", p.syn.prefix, t, t.Pos)
}

// parseName reads the rest of a name whose first identifier is first: a
// column (a or a.b) or a call.
func (p *Parser) parseName(first string) (Expr, error) {
	name := first
	if p.Accept(TokOp, ".") {
		f, err := p.Expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		name += "." + f.Text
	}
	if !p.Accept(TokOp, "(") {
		return &Ident{Name: name}, nil
	}
	call := &Call{Name: lowerASCII(name)}
	if !p.Accept(TokOp, "*") && !p.At(TokOp, ")") {
		for {
			a, err := p.Expr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			if !p.Accept(TokOp, ",") {
				break
			}
		}
	}
	if _, err := p.Expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return call, nil
}

// lowerASCII lowers the ASCII letters of a call name and keeps every other
// byte. strings.ToLower could turn a letter into runes the lexer does not
// read back as a name (İ lowers to i and a combining dot).
func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
