package hdl

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"scaldtv/internal/serr"
	"scaldtv/internal/tick"
)

// PrimKinds lists the primitive instance keywords the language accepts.
var PrimKinds = map[string]bool{
	"and": true, "or": true, "nand": true, "nor": true, "xor": true,
	"not": true, "buf": true, "chg": true,
	"mux2": true, "mux4": true, "mux8": true,
	"reg": true, "regrs": true, "latch": true, "latchrs": true,
	"setuphold": true, "setupriseholdfall": true, "minpulse": true,
}

var propKeys = map[string]bool{
	"delay": true, "seldelay": true, "delayrf": true,
	"setup": true, "hold": true, "high": true, "low": true,
}

// Parser is a recursive-descent parser for the HDL.
type Parser struct {
	lex   *Lexer
	tok   Token
	conns []PortConn // reused port-binding buffer of parseInstance
}

// Parse parses a complete source file.  Errors are structured
// *serr.Error values of kind serr.Parse carrying the source position.
func Parse(src string) (*File, error) {
	p := &Parser{lex: NewLexer(src)}
	if err := p.next(); err != nil {
		return nil, serr.Wrap(serr.Parse, err)
	}
	f, err := p.parseFile()
	if err != nil {
		return nil, serr.Wrap(serr.Parse, err)
	}
	return f, nil
}

func (p *Parser) next() error {
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) errf(format string, args ...any) error {
	return errAt(p.tok, format, args...)
}

// errAt reports a parse error at the position of tok.
func errAt(tok Token, format string, args ...any) error {
	return serr.New(serr.Parse, serr.Pos{Line: tok.Line, Col: tok.Col},
		"hdl:%d:%d: %s", tok.Line, tok.Col, fmt.Sprintf(format, args...))
}

func (p *Parser) isPunct(s string) bool { return p.tok.Kind == TPunct && p.tok.Text == s }

func (p *Parser) expectPunct(s string) error {
	if !p.isPunct(s) {
		return p.errf("expected %q, found %s", s, p.tok)
	}
	return p.next()
}

func (p *Parser) isKeyword(kw string) bool {
	return p.tok.Kind == TIdent && strings.ToLower(p.tok.Text) == kw
}

// name accepts an identifier or quoted string as a name.
func (p *Parser) name() (string, error) {
	if p.tok.Kind != TIdent && p.tok.Kind != TString {
		return "", p.errf("expected a name, found %s", p.tok)
	}
	s := p.tok.Text
	return s, p.next()
}

// parseTime reads an optionally-negated time literal ("2.5", "50ns").
func (p *Parser) parseTime() (tick.Time, error) {
	neg := false
	if p.isPunct("-") {
		neg = true
		if err := p.next(); err != nil {
			return 0, err
		}
	}
	if p.tok.Kind != TNumber {
		return 0, p.errf("expected a time literal, found %s", p.tok)
	}
	t, err := tick.Parse(p.tok.Text)
	if err != nil {
		return 0, p.errf("%v", err)
	}
	if neg {
		t = -t
	}
	return t, p.next()
}

func (p *Parser) parseRangePair() (tick.Range, error) {
	lo, err := p.parseTime()
	if err != nil {
		return tick.Range{}, err
	}
	hi, err := p.parseTime()
	if err != nil {
		return tick.Range{}, err
	}
	r := tick.Range{Min: lo, Max: hi}
	if !r.Valid() {
		return r, p.errf("inverted range %s", r)
	}
	return r, nil
}

// parseDelayPair reads "( t , t )".
func (p *Parser) parseDelayPair() (tick.Range, error) {
	if err := p.expectPunct("("); err != nil {
		return tick.Range{}, err
	}
	lo, err := p.parseTime()
	if err != nil {
		return tick.Range{}, err
	}
	if err := p.expectPunct(","); err != nil {
		return tick.Range{}, err
	}
	hi, err := p.parseTime()
	if err != nil {
		return tick.Range{}, err
	}
	if err := p.expectPunct(")"); err != nil {
		return tick.Range{}, err
	}
	r := tick.Range{Min: lo, Max: hi}
	if !r.Valid() {
		return r, p.errf("inverted delay range %s", r)
	}
	return r, nil
}

// parseFloat reads an optionally-negated bare real number.
func (p *Parser) parseFloat() (float64, error) {
	neg := false
	if p.isPunct("-") {
		neg = true
		if err := p.next(); err != nil {
			return 0, err
		}
	}
	if p.tok.Kind != TNumber {
		return 0, p.errf("expected a number, found %s", p.tok)
	}
	v, err := strconv.ParseFloat(p.tok.Text, 64)
	if err != nil {
		return 0, p.errf("invalid number %q", p.tok.Text)
	}
	if neg {
		v = -v
	}
	return v, p.next()
}

// numberNS reads the current number token as nanoseconds: bare numbers
// are nanoseconds (the language's customary delay unit), and unit
// suffixes are accepted as in parseTime.
func (p *Parser) numberNS() (float64, error) {
	if v, err := strconv.ParseFloat(p.tok.Text, 64); err == nil {
		return v, p.next()
	}
	t, err := tick.Parse(p.tok.Text)
	if err != nil {
		return 0, p.errf("%v", err)
	}
	return float64(t) / 1000, p.next()
}

// parseDExpr parses one side of a delay expression: an affine sum of
// terms, each a number, a parameter name, or a number*parameter product
// in either order ("0.8 + 0.3*load - temp*0.01").
func (p *Parser) parseDExpr() (DExpr, error) {
	var e DExpr
	neg := false
	if p.isPunct("-") {
		neg = true
		if err := p.next(); err != nil {
			return e, err
		}
	}
	for {
		if err := p.parseDTerm(&e, neg); err != nil {
			return e, err
		}
		if p.isPunct("+") {
			neg = false
		} else if p.isPunct("-") {
			neg = true
		} else {
			return e, nil
		}
		if err := p.next(); err != nil {
			return e, err
		}
	}
}

func (p *Parser) parseDTerm(e *DExpr, neg bool) error {
	sign := 1.0
	if neg {
		sign = -1
	}
	switch {
	case p.tok.Kind == TNumber:
		ns, err := p.numberNS()
		if err != nil {
			return err
		}
		if p.isPunct("*") {
			if err := p.next(); err != nil {
				return err
			}
			if p.tok.Kind != TIdent {
				return p.errf("expected a parameter name after *, found %s", p.tok)
			}
			e.Terms = append(e.Terms, DTerm{Param: p.tok.Text, NS: sign * ns})
			return p.next()
		}
		e.ConstNS += sign * ns
		return nil
	case p.tok.Kind == TIdent:
		name := p.tok.Text
		if err := p.next(); err != nil {
			return err
		}
		ns := 1.0 // a bare parameter contributes 1 ns per unit
		if p.isPunct("*") {
			if err := p.next(); err != nil {
				return err
			}
			if p.tok.Kind != TNumber {
				return p.errf("expected a number after *, found %s", p.tok)
			}
			v, err := p.numberNS()
			if err != nil {
				return err
			}
			ns = v
		}
		e.Terms = append(e.Terms, DTerm{Param: name, NS: sign * ns})
		return nil
	}
	return p.errf("expected a delay term, found %s", p.tok)
}

// parseDelayExprPair reads "( dexpr , dexpr )"; pure-constant pairs are
// the classic delay=(min,max) form.
func (p *Parser) parseDelayExprPair() (DExpr, DExpr, error) {
	if err := p.expectPunct("("); err != nil {
		return DExpr{}, DExpr{}, err
	}
	mn, err := p.parseDExpr()
	if err != nil {
		return mn, DExpr{}, err
	}
	if err := p.expectPunct(","); err != nil {
		return mn, DExpr{}, err
	}
	mx, err := p.parseDExpr()
	if err != nil {
		return mn, mx, err
	}
	if err := p.expectPunct(")"); err != nil {
		return mn, mx, err
	}
	return mn, mx, nil
}

// parseDelayQuad reads "( rmin , rmax , fmin , fmax )" for the
// direction-dependent delays of §4.2.2.
func (p *Parser) parseDelayQuad() (tick.Range, tick.Range, error) {
	if err := p.expectPunct("("); err != nil {
		return tick.Range{}, tick.Range{}, err
	}
	var ts [4]tick.Time
	for i := 0; i < 4; i++ {
		t, err := p.parseTime()
		if err != nil {
			return tick.Range{}, tick.Range{}, err
		}
		ts[i] = t
		if i < 3 {
			if err := p.expectPunct(","); err != nil {
				return tick.Range{}, tick.Range{}, err
			}
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return tick.Range{}, tick.Range{}, err
	}
	rise := tick.Range{Min: ts[0], Max: ts[1]}
	fall := tick.Range{Min: ts[2], Max: ts[3]}
	if !rise.Valid() || !fall.Valid() {
		return rise, fall, p.errf("inverted rise/fall delay range")
	}
	return rise, fall, nil
}

func (p *Parser) parseFile() (*File, error) {
	f := &File{}
	for p.tok.Kind != TEOF {
		if p.tok.Kind != TIdent {
			return nil, p.errf("expected a statement, found %s", p.tok)
		}
		kw := strings.ToLower(p.tok.Text)
		switch {
		case kw == "design":
			if err := p.next(); err != nil {
				return nil, err
			}
			n, err := p.name()
			if err != nil {
				return nil, err
			}
			f.Design = n
			if err := p.semicolon(); err != nil {
				return nil, err
			}
		case kw == "period", kw == "clockunit":
			if err := p.next(); err != nil {
				return nil, err
			}
			t, err := p.parseTime()
			if err != nil {
				return nil, err
			}
			if kw == "period" {
				f.Period = t
			} else {
				f.ClockUnit = t
			}
			if err := p.semicolon(); err != nil {
				return nil, err
			}
		case kw == "defaultwire":
			if err := p.next(); err != nil {
				return nil, err
			}
			r, err := p.parseRangePair()
			if err != nil {
				return nil, err
			}
			f.HasWire, f.Wire = true, r
			if err := p.semicolon(); err != nil {
				return nil, err
			}
		case kw == "skew":
			if err := p.next(); err != nil {
				return nil, err
			}
			which := strings.ToLower(p.tok.Text)
			if p.tok.Kind != TIdent || (which != "precision" && which != "clock") {
				return nil, p.errf("skew must name precision or clock, found %s", p.tok)
			}
			if err := p.next(); err != nil {
				return nil, err
			}
			r, err := p.parseRangePair()
			if err != nil {
				return nil, err
			}
			if which == "precision" {
				f.HasPSkew, f.PSkew = true, r
			} else {
				f.HasCSkew, f.CSkew = true, r
			}
			if err := p.semicolon(); err != nil {
				return nil, err
			}
		case kw == "param":
			line := p.tok.Line
			if err := p.next(); err != nil {
				return nil, err
			}
			n, err := p.name()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			def, err := p.parseFloat()
			if err != nil {
				return nil, err
			}
			pd := ParamDecl{Name: n, Default: def, Line: line}
			if p.isKeyword("range") {
				if err := p.next(); err != nil {
					return nil, err
				}
				if pd.Lo, err = p.parseFloat(); err != nil {
					return nil, err
				}
				if pd.Hi, err = p.parseFloat(); err != nil {
					return nil, err
				}
				pd.HasRange = true
			}
			f.Params = append(f.Params, pd)
			if err := p.semicolon(); err != nil {
				return nil, err
			}
		case kw == "wiredor":
			if err := p.next(); err != nil {
				return nil, err
			}
			f.WiredOr = true
			if err := p.semicolon(); err != nil {
				return nil, err
			}
		case kw == "macro":
			m, err := p.parseMacro()
			if err != nil {
				return nil, err
			}
			f.Macros = append(f.Macros, m)
		case kw == "signal":
			if err := p.next(); err != nil {
				return nil, err
			}
			n, err := p.name()
			if err != nil {
				return nil, err
			}
			sd := SignalDecl{Name: n}
			if p.isPunct("<") {
				lo, hi, err := p.parseBitRange()
				if err != nil {
					return nil, err
				}
				sd.HasRange, sd.Lo, sd.Hi = true, lo, hi
			}
			f.Signals = append(f.Signals, sd)
			if err := p.semicolon(); err != nil {
				return nil, err
			}
		case kw == "wire":
			if err := p.next(); err != nil {
				return nil, err
			}
			n, err := p.name()
			if err != nil {
				return nil, err
			}
			r, err := p.parseRangePair()
			if err != nil {
				return nil, err
			}
			f.Wires = append(f.Wires, WireDecl{Name: n, Delay: r})
			if err := p.semicolon(); err != nil {
				return nil, err
			}
		case kw == "case":
			c, err := p.parseCase()
			if err != nil {
				return nil, err
			}
			f.Cases = append(f.Cases, c)
		case kw == "use" || PrimKinds[kw]:
			inst, err := p.parseInstance()
			if err != nil {
				return nil, err
			}
			f.Body = append(f.Body, inst)
		default:
			return nil, p.errf("unknown statement %q", p.tok.Text)
		}
	}
	return f, nil
}

func (p *Parser) semicolon() error {
	// Statements are newline-agnostic; the single terminator is ','.
	// (The lexer strips ';' comments, so ',' doubles as the statement
	// separator in this grammar.)
	if p.isPunct(",") {
		return p.next()
	}
	return nil
}

func (p *Parser) parseBitRange() (Expr, Expr, error) {
	if err := p.expectPunct("<"); err != nil {
		return nil, nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	hi := lo
	if p.isPunct(":") {
		if err := p.next(); err != nil {
			return nil, nil, err
		}
		hi, err = p.parseExpr()
		if err != nil {
			return nil, nil, err
		}
	}
	if err := p.expectPunct(">"); err != nil {
		return nil, nil, err
	}
	return lo, hi, nil
}

func (p *Parser) parseMacro() (*Macro, error) {
	m := &Macro{Line: p.tok.Line}
	if err := p.next(); err != nil { // consume "macro"
		return nil, err
	}
	n, err := p.name()
	if err != nil {
		return nil, err
	}
	m.Name = n
	if p.isPunct("(") {
		if err := p.next(); err != nil {
			return nil, err
		}
		for !p.isPunct(")") {
			if p.tok.Kind != TIdent {
				return nil, p.errf("expected a parameter name, found %s", p.tok)
			}
			m.Params = append(m.Params, p.tok.Text)
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.isPunct(",") {
				if err := p.next(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.next(); err != nil { // consume ")"
			return nil, err
		}
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.isPunct("}") {
		if p.tok.Kind != TIdent {
			return nil, p.errf("expected a macro body statement, found %s", p.tok)
		}
		kw := strings.ToLower(p.tok.Text)
		switch {
		case kw == "param" || kw == "local":
			if err := p.next(); err != nil {
				return nil, err
			}
			for {
				pn, err := p.name()
				if err != nil {
					return nil, err
				}
				pd := PortDecl{Name: pn}
				if p.isPunct("<") {
					lo, hi, err := p.parseBitRange()
					if err != nil {
						return nil, err
					}
					pd.HasRange, pd.Lo, pd.Hi = true, lo, hi
				}
				if kw == "param" {
					m.Ports = append(m.Ports, pd)
				} else {
					m.Locals = append(m.Locals, pd)
				}
				if !p.isPunct(",") {
					break
				}
				if err := p.next(); err != nil {
					return nil, err
				}
			}
		case kw == "use" || PrimKinds[kw]:
			inst, err := p.parseInstance()
			if err != nil {
				return nil, err
			}
			m.Body = append(m.Body, inst)
		default:
			return nil, p.errf("unknown macro body statement %q", p.tok.Text)
		}
	}
	return m, p.next() // consume "}"
}

func (p *Parser) parseCase() (CaseDecl, error) {
	var c CaseDecl
	if err := p.next(); err != nil { // consume "case"
		return c, err
	}
	var labels []string
	for {
		sig, err := p.name()
		if err != nil {
			return c, err
		}
		if err := p.expectPunct("="); err != nil {
			return c, err
		}
		if p.tok.Kind != TNumber || (p.tok.Text != "0" && p.tok.Text != "1") {
			return c, p.errf("case value must be 0 or 1, found %s", p.tok)
		}
		v, _ := strconv.Atoi(p.tok.Text)
		if err := p.next(); err != nil {
			return c, err
		}
		c.Assigns = append(c.Assigns, CaseAssign{Signal: sig, Value: v})
		labels = append(labels, fmt.Sprintf("%s = %d", sig, v))
		if !p.isPunct(",") {
			break
		}
		if err := p.next(); err != nil {
			return c, err
		}
	}
	c.Label = strings.Join(labels, ", ")
	return c, nil
}

func (p *Parser) parseInstance() (*Instance, error) {
	inst := &Instance{Kind: strings.ToLower(p.tok.Text), Line: p.tok.Line}
	if err := p.next(); err != nil {
		return nil, err
	}
	if inst.Kind == "use" {
		mn, err := p.name()
		if err != nil {
			return nil, err
		}
		inst.Macro = mn
	}
	// Optional instance label: a name not followed by '=' that is not a
	// property key and not the opening parenthesis.
	if (p.tok.Kind == TString) || (p.tok.Kind == TIdent && !propKeys[strings.ToLower(p.tok.Text)]) {
		label := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.isPunct("=") {
			// It was a value-parameter binding after all (use FOO SIZE=32).
			if inst.Kind != "use" {
				return nil, p.errf("unknown property %q", label)
			}
			if err := p.next(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			inst.ParamVals = append(inst.ParamVals, ParamVal{Name: label, Val: e})
		} else {
			inst.Label = label
		}
	}
	// Properties and value parameters.
	for p.tok.Kind == TIdent {
		key := strings.ToLower(p.tok.Text)
		rawKey := p.tok.Text
		keyTok := p.tok
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		switch key {
		case "delay":
			mn, mx, err := p.parseDelayExprPair()
			if err != nil {
				return nil, err
			}
			if mn.Constant() && mx.Constant() {
				r := tick.Range{Min: tick.Time(math.Round(mn.ConstNS * 1000)), Max: tick.Time(math.Round(mx.ConstNS * 1000))}
				if !r.Valid() {
					return nil, p.errf("inverted delay range %s", r)
				}
				inst.HasDelay, inst.Delay = true, r
			} else {
				inst.HasDelayExpr = true
				inst.DelayExprMin, inst.DelayExprMax = mn, mx
			}
		case "seldelay":
			r, err := p.parseDelayPair()
			if err != nil {
				return nil, err
			}
			inst.HasSelDelay, inst.SelDelay = true, r
		case "delayrf":
			rise, fall, err := p.parseDelayQuad()
			if err != nil {
				return nil, err
			}
			inst.HasRF, inst.Rise, inst.Fall = true, rise, fall
		case "setup", "hold", "high", "low":
			t, err := p.parseTime()
			if err != nil {
				return nil, err
			}
			switch key {
			case "setup":
				inst.Setup = t
			case "hold":
				inst.Hold = t
			case "high":
				inst.High = t
			case "low":
				inst.Low = t
			}
		default:
			if inst.Kind != "use" {
				return nil, p.errf("unknown property %q", rawKey)
			}
			if _, dup := inst.Param(rawKey); dup {
				return nil, errAt(keyTok, "parameter %q bound twice", rawKey)
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			inst.ParamVals = append(inst.ParamVals, ParamVal{Name: rawKey, Val: e})
		}
	}
	// Connections.
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if inst.Kind == "use" {
		// Bindings collect in a reused buffer, so each use allocates one
		// exact-size slice.
		inst.Conns = p.conns[:0]
		for !p.isPunct(")") {
			if p.tok.Kind != TIdent {
				return nil, p.errf("expected a port name, found %s", p.tok)
			}
			port := p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			se, err := p.parseSigExpr()
			if err != nil {
				return nil, err
			}
			if inst.Conn(port) != nil {
				return nil, p.errf("port %q connected twice", port)
			}
			inst.Conns = append(inst.Conns, PortConn{Port: port, Sig: se})
			if p.isPunct(",") {
				if err := p.next(); err != nil {
					return nil, err
				}
			}
		}
		p.conns = inst.Conns
		inst.Conns = slices.Clone(inst.Conns)
		if err := p.next(); err != nil { // ")"
			return nil, err
		}
	} else {
		for !p.isPunct(")") {
			se, err := p.parseSigExpr()
			if err != nil {
				return nil, err
			}
			inst.Ins = append(inst.Ins, se)
			if p.isPunct(",") {
				if err := p.next(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.next(); err != nil { // ")"
			return nil, err
		}
		if p.isPunct("->") {
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			for !p.isPunct(")") {
				se, err := p.parseSigExpr()
				if err != nil {
					return nil, err
				}
				inst.Outs = append(inst.Outs, se)
				if p.isPunct(",") {
					if err := p.next(); err != nil {
						return nil, err
					}
				}
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	return inst, p.semicolon()
}

func (p *Parser) parseSigExpr() (*SigExpr, error) {
	se := &SigExpr{Line: p.tok.Line}
	if p.isPunct("-") {
		se.Invert = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	n, err := p.name()
	if err != nil {
		return nil, err
	}
	se.Name = n
	if p.isPunct("<") {
		lo, hi, err := p.parseBitRange()
		if err != nil {
			return nil, err
		}
		se.HasRange, se.Lo, se.Hi = true, lo, hi
	}
	if p.isPunct("&") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind != TIdent {
			return nil, p.errf("expected directive letters after &, found %s", p.tok)
		}
		se.Dirs = p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	return se, nil
}

// parseExpr parses constant integer expressions over value parameters.
func (p *Parser) parseExpr() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.isPunct("+") || p.isPunct("-") {
		op := p.tok.Text[0]
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseTerm() (Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.isPunct("*") || p.isPunct("/") {
		op := p.tok.Text[0]
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseFactor() (Expr, error) {
	switch {
	case p.tok.Kind == TNumber:
		v, err := strconv.Atoi(p.tok.Text)
		if err != nil {
			return nil, p.errf("vector bounds must be integers, found %q", p.tok.Text)
		}
		return NumExpr(v), p.next()
	case p.tok.Kind == TIdent:
		e := VarExpr(p.tok.Text)
		return e, p.next()
	case p.isPunct("("):
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")
	case p.isPunct("-"):
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return BinExpr{Op: '-', L: NumExpr(0), R: e}, nil
	}
	return nil, p.errf("expected an expression, found %s", p.tok)
}
