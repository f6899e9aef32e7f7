package lang

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer turns CLF source text into tokens. It supports //-comments and
// /* */-comments and tracks line/column positions for diagnostics and,
// more importantly, for statement labels: every sync/new/spawn in a CLF
// program is identified across executions by its file:line.
type Lexer struct {
	file string
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer for src, attributing positions to file.
func NewLexer(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1, col: 1}
}

// pos returns the current position.
func (l *Lexer) pos() Pos {
	return Pos{File: l.file, Line: l.line, Col: l.col}
}

// peek returns the current rune without consuming it (0 at EOF).
func (l *Lexer) peek() rune {
	if l.off >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

// advance consumes one rune.
func (l *Lexer) advance() rune {
	r, size := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += size
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

// skipSpaceAndComments consumes whitespace and both comment forms.
func (l *Lexer) skipSpaceAndComments() error {
	for {
		r := l.peek()
		switch {
		case r == 0:
			return nil
		case unicode.IsSpace(r):
			l.advance()
		case r == '/' && strings.HasPrefix(l.src[l.off:], "//"):
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
		case r == '/' && strings.HasPrefix(l.src[l.off:], "/*"):
			start := l.pos()
			l.advance()
			l.advance()
			for !strings.HasPrefix(l.src[l.off:], "*/") {
				if l.peek() == 0 {
					return errf(start, "unterminated block comment")
				}
				l.advance()
			}
			l.advance()
			l.advance()
		default:
			return nil
		}
	}
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	r := l.peek()
	switch {
	case r == 0:
		return Token{Kind: TokEOF, Pos: pos}, nil
	case unicode.IsLetter(r) || r == '_':
		start := l.off
		for unicode.IsLetter(l.peek()) || unicode.IsDigit(l.peek()) || l.peek() == '_' {
			l.advance()
		}
		text := l.src[start:l.off]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Pos: pos}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: pos}, nil
	case unicode.IsDigit(r):
		start := l.off
		for unicode.IsDigit(l.peek()) {
			l.advance()
		}
		return Token{Kind: TokInt, Text: l.src[start:l.off], Pos: pos}, nil
	case r == '"':
		l.advance()
		var b strings.Builder
		for {
			c := l.peek()
			switch c {
			case 0, '\n':
				return Token{}, errf(pos, "unterminated string literal")
			case '"':
				l.advance()
				return Token{Kind: TokString, Text: b.String(), Pos: pos}, nil
			case '\\':
				l.advance()
				esc := l.advance()
				switch esc {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '"', '\\':
					b.WriteRune(esc)
				default:
					return Token{}, errf(pos, "unknown escape \\%c", esc)
				}
			default:
				b.WriteRune(l.advance())
			}
		}
	}
	// Operators and punctuation.
	l.advance()
	two := func(next rune, ifTwo, ifOne TokKind) Token {
		if l.peek() == next {
			l.advance()
			return Token{Kind: ifTwo, Pos: pos}
		}
		return Token{Kind: ifOne, Pos: pos}
	}
	switch r {
	case '(':
		return Token{Kind: TokLParen, Pos: pos}, nil
	case ')':
		return Token{Kind: TokRParen, Pos: pos}, nil
	case '{':
		return Token{Kind: TokLBrace, Pos: pos}, nil
	case '}':
		return Token{Kind: TokRBrace, Pos: pos}, nil
	case ',':
		return Token{Kind: TokComma, Pos: pos}, nil
	case ';':
		return Token{Kind: TokSemi, Pos: pos}, nil
	case '.':
		return Token{Kind: TokDot, Pos: pos}, nil
	case '+':
		return Token{Kind: TokPlus, Pos: pos}, nil
	case '-':
		return Token{Kind: TokMinus, Pos: pos}, nil
	case '*':
		return Token{Kind: TokStar, Pos: pos}, nil
	case '/':
		return Token{Kind: TokSlash, Pos: pos}, nil
	case '%':
		return Token{Kind: TokPercent, Pos: pos}, nil
	case '=':
		return two('=', TokEq, TokAssign), nil
	case '!':
		return two('=', TokNeq, TokBang), nil
	case '<':
		return two('=', TokLe, TokLt), nil
	case '>':
		return two('=', TokGe, TokGt), nil
	case '&':
		if l.peek() == '&' {
			l.advance()
			return Token{Kind: TokAndAnd, Pos: pos}, nil
		}
		return Token{}, errf(pos, "unexpected '&' (did you mean '&&'?)")
	case '|':
		if l.peek() == '|' {
			l.advance()
			return Token{Kind: TokOrOr, Pos: pos}, nil
		}
		return Token{}, errf(pos, "unexpected '|' (did you mean '||'?)")
	}
	return Token{}, errf(pos, "unexpected character %q", r)
}
