// Package lang implements the surface syntax of the deductive
// database: a Datalog dialect with lists, integers, strings, infix
// comparison builtins, queries (?- ...) and pragmas (@name args).
//
// Example program (the paper's append):
//
//	append([], L, L).
//	append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
//	?- append([1,2], [3], W).
package lang

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF   tokKind = iota
	tokAtom          // lowercase identifier: parent, ottawa
	tokVar           // Uppercase or _ identifier: X, _G1
	tokInt           // integer literal, possibly negative
	tokStr           // "double quoted"
	tokPunct         // punctuation and operators
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokAtom:
		return "atom"
	case tokVar:
		return "variable"
	case tokInt:
		return "integer"
	case tokStr:
		return "string"
	case tokPunct:
		return "punctuation"
	default:
		return "token"
	}
}

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// SyntaxError describes a lexing or parsing failure with its position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(format string, args ...interface{}) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for {
		c, ok := l.peekByte()
		if !ok {
			return
		}
		switch {
		case c == '%':
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.advance()
			}
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// multi-char punctuation, longest first.
var multiPunct = []string{":-", "?-", "=<", ">=", "\\=", "\\+"}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	c, ok := l.peekByte()
	if !ok {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	switch {
	case unicode.IsDigit(rune(c)):
		start := l.pos
		for {
			c, ok := l.peekByte()
			if !ok || !unicode.IsDigit(rune(c)) {
				break
			}
			l.advance()
		}
		return token{kind: tokInt, text: l.src[start:l.pos], line: line, col: col}, nil
	case c == '-':
		// negative integer literal (no other use of '-' in the syntax)
		if l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1])) {
			start := l.pos
			l.advance()
			for {
				c, ok := l.peekByte()
				if !ok || !unicode.IsDigit(rune(c)) {
					break
				}
				l.advance()
			}
			return token{kind: tokInt, text: l.src[start:l.pos], line: line, col: col}, nil
		}
		return token{}, l.errf("unexpected '-'")
	case isIdentStart(c):
		start := l.pos
		for {
			c, ok := l.peekByte()
			if !ok || !isIdentChar(c) {
				break
			}
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := tokAtom
		if text[0] == '_' || unicode.IsUpper(rune(text[0])) {
			kind = tokVar
		}
		return token{kind: kind, text: text, line: line, col: col}, nil
	case c == '"':
		l.advance()
		var b strings.Builder
		for {
			c, ok := l.peekByte()
			if !ok {
				return token{}, l.errf("unterminated string")
			}
			l.advance()
			if c == '"' {
				return token{kind: tokStr, text: b.String(), line: line, col: col}, nil
			}
			if c == '\\' {
				e, ok := l.peekByte()
				if !ok {
					return token{}, l.errf("unterminated escape")
				}
				l.advance()
				switch e {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '\\', '"':
					b.WriteByte(e)
				default:
					return token{}, l.errf("unknown escape \\%c", e)
				}
				continue
			}
			b.WriteByte(c)
		}
	default:
		for _, mp := range multiPunct {
			if strings.HasPrefix(l.src[l.pos:], mp) {
				for range mp {
					l.advance()
				}
				return token{kind: tokPunct, text: mp, line: line, col: col}, nil
			}
		}
		switch c {
		case '(', ')', '[', ']', '|', ',', '.', '=', '<', '>', '@':
			l.advance()
			return token{kind: tokPunct, text: string(c), line: line, col: col}, nil
		}
		return token{}, l.errf("unexpected character %q", c)
	}
}

// lexAll tokenizes the whole input (used by the parser, which needs
// one-token lookahead).
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
