package hdl

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"scaldtv/internal/tick"
)

// Format renders a parsed file back as canonical HDL source: one
// statement per line, uniform spacing, names quoted exactly when they
// need to be.  Formatting is idempotent: parsing the output and
// formatting again yields the same text.
func Format(f *File) string {
	var sb strings.Builder
	if f.Design != "" {
		fmt.Fprintf(&sb, "design %s\n", fmtName(f.Design))
	}
	if f.Period > 0 {
		fmt.Fprintf(&sb, "period %s\n", fmtTime(f.Period))
	}
	if f.ClockUnit > 0 {
		fmt.Fprintf(&sb, "clockunit %s\n", fmtTime(f.ClockUnit))
	}
	if f.HasWire {
		fmt.Fprintf(&sb, "defaultwire %s %s\n", fmtTime(f.Wire.Min), fmtTime(f.Wire.Max))
	}
	if f.HasPSkew {
		fmt.Fprintf(&sb, "skew precision %s %s\n", fmtTime(f.PSkew.Min), fmtTime(f.PSkew.Max))
	}
	if f.HasCSkew {
		fmt.Fprintf(&sb, "skew clock %s %s\n", fmtTime(f.CSkew.Min), fmtTime(f.CSkew.Max))
	}
	if f.WiredOr {
		sb.WriteString("wiredor\n")
	}
	for _, pd := range f.Params {
		fmt.Fprintf(&sb, "param %s = %s", fmtName(pd.Name), fmtFloat(pd.Default))
		if pd.HasRange {
			fmt.Fprintf(&sb, " range %s %s", fmtFloat(pd.Lo), fmtFloat(pd.Hi))
		}
		sb.WriteString("\n")
	}
	for _, sd := range f.Signals {
		fmt.Fprintf(&sb, "signal %s%s\n", fmtName(sd.Name), fmtRange(sd.HasRange, sd.Lo, sd.Hi))
	}
	for _, wd := range f.Wires {
		fmt.Fprintf(&sb, "wire %s %s %s\n", fmtName(wd.Name), fmtTime(wd.Delay.Min), fmtTime(wd.Delay.Max))
	}
	for _, m := range f.Macros {
		sb.WriteString("\n")
		fmt.Fprintf(&sb, "macro %s", fmtName(m.Name))
		if len(m.Params) > 0 {
			fmt.Fprintf(&sb, " (%s)", strings.Join(m.Params, ", "))
		}
		sb.WriteString(" {\n")
		if len(m.Ports) > 0 {
			sb.WriteString("    param ")
			for i, pd := range m.Ports {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(fmtName(pd.Name) + fmtRange(pd.HasRange, pd.Lo, pd.Hi))
			}
			sb.WriteString("\n")
		}
		if len(m.Locals) > 0 {
			sb.WriteString("    local ")
			for i, pd := range m.Locals {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(fmtName(pd.Name) + fmtRange(pd.HasRange, pd.Lo, pd.Hi))
			}
			sb.WriteString("\n")
		}
		for _, inst := range m.Body {
			sb.WriteString("    " + fmtInstance(inst) + "\n")
		}
		sb.WriteString("}\n")
	}
	if len(f.Body) > 0 {
		sb.WriteString("\n")
	}
	for _, inst := range f.Body {
		sb.WriteString(fmtInstance(inst) + "\n")
	}
	for _, c := range f.Cases {
		sb.WriteString("case ")
		for i, a := range c.Assigns {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s = %d", fmtName(a.Signal), a.Value)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// fmtName quotes a name when it cannot stand as a bare identifier.
func fmtName(s string) string {
	bare := isIdent(s)
	// Bare words that collide with keywords or primitive kinds must be
	// quoted too.
	lower := strings.ToLower(s)
	if PrimKinds[lower] {
		bare = false
	}
	switch lower {
	case "design", "period", "clockunit", "defaultwire", "skew", "macro",
		"signal", "wire", "case", "use", "param", "local", "wiredor":
		bare = false
	}
	if bare {
		return s
	}
	return fmt.Sprintf("%q", s)
}

// isIdent reports whether s lexes as one bare identifier token.
func isIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentBody(s[i]) {
			return false
		}
	}
	return true
}

// bareKey reports whether an instance label or parameter name can stand
// unquoted: an identifier that the parser does not read as a property
// key.
func bareKey(s string) bool { return isIdent(s) && !propKeys[strings.ToLower(s)] }

func fmtTime(t tick.Time) string {
	return t.String() + "ns"
}

// fmtFloat renders a real value with the shortest exact spelling.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// fmtDExpr renders a delay expression in canonical term order: the
// constant first (when present), then each parameter term as
// coefficient*name.
func fmtDExpr(e DExpr) string {
	var sb strings.Builder
	wrote := false
	if e.ConstNS != 0 || len(e.Terms) == 0 {
		sb.WriteString(fmtFloat(e.ConstNS))
		wrote = true
	}
	for _, t := range e.Terms {
		ns := t.NS
		if wrote {
			if ns < 0 {
				sb.WriteString(" - ")
				ns = -ns
			} else {
				sb.WriteString(" + ")
			}
		} else if ns < 0 {
			sb.WriteString("-")
			ns = -ns
		}
		fmt.Fprintf(&sb, "%s*%s", fmtFloat(ns), t.Param)
		wrote = true
	}
	return sb.String()
}

func fmtRange(has bool, lo, hi Expr) string {
	if !has {
		return ""
	}
	ls, hs := fmtExpr(lo), fmtExpr(hi)
	if ls == hs {
		return fmt.Sprintf("<%s>", ls)
	}
	return fmt.Sprintf("<%s:%s>", ls, hs)
}

func fmtExpr(e Expr) string {
	switch v := e.(type) {
	case NumExpr:
		return fmt.Sprintf("%d", int(v))
	case VarExpr:
		return string(v)
	case BinExpr:
		return fmt.Sprintf("(%s%c%s)", fmtExpr(v.L), v.Op, fmtExpr(v.R))
	}
	return "?"
}

func fmtSigExpr(se *SigExpr) string {
	var sb strings.Builder
	if se.Invert {
		sb.WriteString("-")
	}
	sb.WriteString(fmtName(se.Name))
	sb.WriteString(fmtRange(se.HasRange, se.Lo, se.Hi))
	if se.Dirs != "" {
		sb.WriteString(" &" + se.Dirs)
	}
	return sb.String()
}

func fmtInstance(inst *Instance) string {
	var sb strings.Builder
	sb.WriteString(inst.Kind)
	if inst.Kind == "use" {
		sb.WriteString(" " + fmtName(inst.Macro))
	}
	if inst.Label != "" {
		label := fmtName(inst.Label)
		if !bareKey(inst.Label) {
			label = fmt.Sprintf("%q", inst.Label)
		}
		sb.WriteString(" " + label)
	}
	// Only the slot after the kind (or macro name) may hold a quoted
	// name — a label, or a use's first parameter binding — so a binding
	// whose name cannot stand bare is printed first, and quoted.
	params := slices.Clone(inst.ParamVals)
	slices.SortFunc(params, func(a, b ParamVal) int {
		if qa, qb := !bareKey(a.Name), !bareKey(b.Name); qa != qb {
			if qa {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Name, b.Name)
	})
	for _, pv := range params {
		key := pv.Name
		if !bareKey(key) {
			key = fmt.Sprintf("%q", key)
		}
		fmt.Fprintf(&sb, " %s=%s", key, fmtExpr(pv.Val))
	}
	if inst.HasDelay {
		fmt.Fprintf(&sb, " delay=(%s,%s)", inst.Delay.Min, inst.Delay.Max)
	}
	if inst.HasDelayExpr {
		fmt.Fprintf(&sb, " delay=(%s, %s)", fmtDExpr(inst.DelayExprMin), fmtDExpr(inst.DelayExprMax))
	}
	if inst.HasSelDelay {
		fmt.Fprintf(&sb, " seldelay=(%s,%s)", inst.SelDelay.Min, inst.SelDelay.Max)
	}
	if inst.HasRF {
		fmt.Fprintf(&sb, " delayrf=(%s,%s,%s,%s)", inst.Rise.Min, inst.Rise.Max, inst.Fall.Min, inst.Fall.Max)
	}
	if inst.Setup != 0 {
		fmt.Fprintf(&sb, " setup=%s", inst.Setup)
	}
	if inst.Hold != 0 {
		fmt.Fprintf(&sb, " hold=%s", inst.Hold)
	}
	if inst.High != 0 {
		fmt.Fprintf(&sb, " high=%s", inst.High)
	}
	if inst.Low != 0 {
		fmt.Fprintf(&sb, " low=%s", inst.Low)
	}
	sb.WriteString(" (")
	if inst.Kind == "use" {
		conns := slices.Clone(inst.Conns)
		slices.SortFunc(conns, func(a, b PortConn) int { return strings.Compare(a.Port, b.Port) })
		for i, pc := range conns {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s=%s", pc.Port, fmtSigExpr(pc.Sig))
		}
	} else {
		for i, se := range inst.Ins {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(fmtSigExpr(se))
		}
	}
	sb.WriteString(")")
	if len(inst.Outs) > 0 {
		sb.WriteString(" -> (")
		for i, se := range inst.Outs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(fmtSigExpr(se))
		}
		sb.WriteString(")")
	}
	return sb.String()
}
