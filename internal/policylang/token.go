// Package policylang implements a small textual language for
// event–condition–action policies — the concrete carrier for the
// "policy generator grammar / policy template" of the generative policy
// architecture (Section IV). Generated and human-written policies share
// one syntax:
//
//	# comments run to end of line
//	policy escalate priority 10:
//	    on smoke-detected
//	    when intensity > 3 and state.fuel >= 10
//	    do dispatch-chem-drone target chem-1 category surveillance
//	       param mode = "fast" effect fuel -= 5
//	       obligation notify-hq
//
//	policy no-kinetic priority 100:
//	    on *
//	    forbid category kinetic-action
//
// Parse produces an AST ([]Rule); Compile lowers a Rule to a
// policy.Policy; Print renders a Rule back to canonical text.
package policylang

import (
	"fmt"
	"strconv"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokenEOF TokenKind = iota + 1
	TokenIdent
	TokenNumber
	TokenString
	TokenColon
	TokenComma
	TokenLParen
	TokenRParen
	TokenStar
	TokenEquals  // =
	TokenPlusEq  // +=
	TokenMinusEq // -=
	TokenMinus   // -
	TokenCmp     // < <= > >= == !=
)

// String names the token kind.
func (k TokenKind) String() string {
	switch k {
	case TokenEOF:
		return "EOF"
	case TokenIdent:
		return "identifier"
	case TokenNumber:
		return "number"
	case TokenString:
		return "string"
	case TokenColon:
		return "':'"
	case TokenComma:
		return "','"
	case TokenLParen:
		return "'('"
	case TokenRParen:
		return "')'"
	case TokenStar:
		return "'*'"
	case TokenEquals:
		return "'='"
	case TokenPlusEq:
		return "'+='"
	case TokenMinusEq:
		return "'-='"
	case TokenMinus:
		return "'-'"
	case TokenCmp:
		return "comparison"
	default:
		return "unknown"
	}
}

// Token is one lexical unit with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
}

// SyntaxError reports a lexing or parsing failure with position.
type SyntaxError struct {
	Line int
	Col  int
	Msg  string
}

// Error renders the error with position.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("policylang: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

func errAt(line, col int, format string, args ...any) error {
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// lexer scans source text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
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
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == '#':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case unicode.IsSpace(rune(c)):
			l.advance()
		default:
			return
		}
	}
}

// next returns the next token.
func (l *lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return Token{Kind: TokenEOF, Line: line, Col: col}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		return l.lexIdent(line, col), nil
	case c >= '0' && c <= '9':
		return l.lexNumber(line, col), nil
	case c == '"':
		return l.lexString(line, col)
	}
	l.advance()
	switch c {
	case ':':
		return Token{Kind: TokenColon, Text: ":", Line: line, Col: col}, nil
	case ',':
		return Token{Kind: TokenComma, Text: ",", Line: line, Col: col}, nil
	case '(':
		return Token{Kind: TokenLParen, Text: "(", Line: line, Col: col}, nil
	case ')':
		return Token{Kind: TokenRParen, Text: ")", Line: line, Col: col}, nil
	case '*':
		return Token{Kind: TokenStar, Text: "*", Line: line, Col: col}, nil
	case '+':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: TokenPlusEq, Text: "+=", Line: line, Col: col}, nil
		}
		return Token{}, errAt(line, col, "unexpected '+'")
	case '-':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: TokenMinusEq, Text: "-=", Line: line, Col: col}, nil
		}
		return Token{Kind: TokenMinus, Text: "-", Line: line, Col: col}, nil
	case '=':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: TokenCmp, Text: "==", Line: line, Col: col}, nil
		}
		return Token{Kind: TokenEquals, Text: "=", Line: line, Col: col}, nil
	case '!':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: TokenCmp, Text: "!=", Line: line, Col: col}, nil
		}
		return Token{}, errAt(line, col, "unexpected '!'")
	case '<':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: TokenCmp, Text: "<=", Line: line, Col: col}, nil
		}
		return Token{Kind: TokenCmp, Text: "<", Line: line, Col: col}, nil
	case '>':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: TokenCmp, Text: ">=", Line: line, Col: col}, nil
		}
		return Token{Kind: TokenCmp, Text: ">", Line: line, Col: col}, nil
	}
	return Token{}, errAt(line, col, "unexpected character %q", string(c))
}

// lexIdent, lexNumber and lexString slice their token text from the
// source instead of copying it, so a compiled policy's names share the
// source's bytes. None of these tokens spans a newline, so the column
// advances by the token's length.
func (l *lexer) lexIdent(line, col int) Token {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		// A '-' stays inside an identifier only when sandwiched
		// between alphanumerics, so "chem-1" is one token but
		// "x -= 1" and "x - 1" lex as operators.
		if !isIdentPart(c) && (c != '-' || !isAlnum(l.peekAt(1))) {
			break
		}
		l.pos++
	}
	l.col += l.pos - start
	return Token{Kind: TokenIdent, Text: l.src[start:l.pos], Line: line, Col: col}
}

func (l *lexer) lexNumber(line, col int) Token {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' && !seenDot && l.peekAt(1) >= '0' && l.peekAt(1) <= '9' {
			seenDot = true
		} else if c < '0' || c > '9' {
			break
		}
		l.pos++
	}
	l.col += l.pos - start
	return Token{Kind: TokenNumber, Text: l.src[start:l.pos], Line: line, Col: col}
}

// lexString reads a double-quoted literal. Without a backslash its
// text is the bytes between the quotes. With one, it is decoded by
// strconv.Unquote, the exact inverse of the %q that Print writes, so
// Parse(Print(r)) keeps control bytes and invalid UTF-8, and an escape
// Go does not define is a syntax error.
func (l *lexer) lexString(line, col int) (Token, error) {
	start := l.pos
	escaped := false
	for i := start + 1; i < len(l.src); i++ {
		switch l.src[i] {
		case '"':
			lit := l.src[start : i+1]
			l.pos = i + 1
			l.col += len(lit)
			if !escaped {
				return Token{Kind: TokenString, Text: lit[1 : len(lit)-1], Line: line, Col: col}, nil
			}
			text, err := strconv.Unquote(lit)
			if err != nil {
				return Token{}, errAt(line, col, "invalid escape in string")
			}
			return Token{Kind: TokenString, Text: text, Line: line, Col: col}, nil
		case '\n':
			return Token{}, errAt(line, col, "unterminated string")
		case '\\':
			escaped = true
			i++ // the escaped byte never closes the literal
		}
	}
	return Token{}, errAt(line, col, "unterminated string")
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '.'
}

func isAlnum(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
