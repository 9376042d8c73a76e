// Package hdl implements a textual equivalent of the SCALD Hardware
// Description Language (McWilliams 1980, §2.4, §3.1).  The original
// language is graphical — schematics drawn in SUDS — so this package
// defines a text grammar carrying the same information: hierarchical
// macros with value parameters, vectored ports with computed bit ranges,
// signal names with embedded timing assertions ("W DATA .S0-6"),
// complement rails ("-WE"), evaluation directives ("&H"), and the
// case-analysis specifications of §2.7.1.
//
// Grammar sketch (';' introduces a comment to end of line):
//
//	design EXAMPLE;
//	period 50ns;  clockunit 6.25ns;
//	defaultwire 0ns 2ns;
//	skew precision -1ns 1ns;
//	skew clock -5ns 5ns;
//
//	macro "16W RAM 10145A" (SIZE) {
//	    param I<0:SIZE-1>, A<0:3>, WE, DO<0:SIZE-1>;
//	    chg delay=(5.0, 9.0) (A<0:3>, WE) -> (DO<0:SIZE-1>);
//	    setuphold setup=4.5 hold=-1.0 (I<0:SIZE-1>, -WE);
//	    setupriseholdfall setup=3.5 hold=1.0 (A<0:3>, WE);
//	    minpulse high=4.0 (WE);
//	}
//
//	and "WE GATE" delay=(1.0, 2.9) (-"CK .P2-3 L" &H, -"WRITE .S0-6 L") -> (WE);
//	use "16W RAM 10145A" RAM1 SIZE=32 (I="W DATA .S0-6"<0:31>, A=ADR<0:3>, WE=WE, DO=DO<0:31>);
//	wire ADR 0ns 6ns;
//	case "CONTROL SIGNAL" = 0;
//	case "CONTROL SIGNAL" = 1;
package hdl

import (
	"fmt"
	"strings"
)

// TokKind classifies a lexical token.
type TokKind int

// Token kinds.
const (
	TEOF    TokKind = iota
	TIdent          // bare identifier or keyword
	TString         // quoted signal or macro name
	TNumber         // numeric literal, possibly with a unit suffix (50ns, 6.25)
	TPunct          // single punctuation rune, or the two-rune arrow "->"
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TEOF:
		return "end of input"
	case TString:
		return fmt.Sprintf("%q", t.Text)
	default:
		return t.Text
	}
}

// Lexer tokenizes HDL source.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) advance() byte {
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

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == ';':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentBody(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.  Lexical errors are returned as an error.
// A token's Text is a slice of the source, never a copy: anything that
// outlives the source must clone the strings it keeps.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = TEOF
		return tok, nil
	}
	start := l.pos
	c := l.src[start]
	switch {
	case c == '"':
		end := start + 1
		for end < len(l.src) && l.src[end] != '"' && l.src[end] != '\n' {
			end++
		}
		if end == len(l.src) {
			return tok, fmt.Errorf("hdl:%d:%d: unterminated string", tok.Line, tok.Col)
		}
		if l.src[end] == '\n' {
			return tok, fmt.Errorf("hdl:%d:%d: newline in string", tok.Line, tok.Col)
		}
		l.skip(end + 1)
		tok.Kind = TString
		tok.Text = l.src[start+1 : end]
		return tok, nil
	case isIdentStart(c):
		end := start + 1
		for end < len(l.src) && isIdentBody(l.src[end]) {
			end++
		}
		l.skip(end)
		tok.Kind = TIdent
		tok.Text = l.src[start:end]
		return tok, nil
	case isDigit(c):
		end := start + 1
		for end < len(l.src) && (isDigit(l.src[end]) || l.src[end] == '.') {
			end++
		}
		// Optional unit suffix glued to the number (50ns, 3us).
		for end < len(l.src) && isIdentStart(l.src[end]) {
			end++
		}
		l.skip(end)
		tok.Kind = TNumber
		tok.Text = l.src[start:end]
		return tok, nil
	case c == '-' && start+1 < len(l.src) && l.src[start+1] == '>':
		l.skip(start + 2)
		tok.Kind = TPunct
		tok.Text = l.src[start : start+2]
		return tok, nil
	case c == '-' || strings.IndexByte("(){}<>,=:&/*+", c) >= 0:
		l.skip(start + 1)
		tok.Kind = TPunct
		tok.Text = l.src[start : start+1]
		return tok, nil
	}
	return tok, fmt.Errorf("hdl:%d:%d: unexpected character %q", tok.Line, tok.Col, c)
}

// skip advances to end over bytes that hold no newline.
func (l *Lexer) skip(end int) {
	l.col += end - l.pos
	l.pos = end
}

// LexAll tokenizes the entire input (for tests and error recovery).
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return out, err
		}
		out = append(out, t)
		if t.Kind == TEOF {
			return out, nil
		}
	}
}
