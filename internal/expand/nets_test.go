package expand_test

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"scaldtv/internal/expand"
	"scaldtv/internal/hdl"
	"scaldtv/internal/netlist"
)

// TestExpandTablesSizedOnce requires the Pass-1 census to be exact on
// every pinned design: Pass 2 fills the net and primitive tables to the
// capacity the census reserved, and never regrows them.
func TestExpandTablesSizedOnce(t *testing.T) {
	for _, pd := range pinDesigns(t) {
		d := expandSource(t, pd.src)
		if cap(d.Nets) != len(d.Nets) || cap(d.Prims) != len(d.Prims) {
			t.Errorf("%s: nets %d of capacity %d, prims %d of capacity %d",
				pd.name, len(d.Nets), cap(d.Nets), len(d.Prims), cap(d.Prims))
		}
	}
}

// TestExpandNetIdentity pins which spellings name one net.  A net is its
// full name: a quoted scalar that spells a vector bit is that bit, and
// two spellings of one vector whose bit names format alike share their
// bits, whichever reference comes first.  An index keyed by spelling
// alone would build 7 and 10 nets here.
func TestExpandNetIdentity(t *testing.T) {
	vector := `buf "VB" delay=(1.0, 2.0) (A) -> (X<0:3>)` + "\n"
	scalar := `buf "SB" delay=(1.0, 2.0) ("X<3>") -> ("Y")` + "\n"
	b1 := `or "B1" delay=(1.0, 2.0) ("X .S0-4"<0:3>) -> ("Y")` + "\n"
	b2 := `buf "B2" delay=(1.0, 2.0) ("X<3> .S0-4") -> ("W")` + "\n"
	b3 := `or "B3" delay=(1.0, 2.0) ("X  .S0-4"<0:1>) -> ("V")` + "\n"
	for _, c := range []struct {
		name, body string
		nets       int
		bit        string // the net name bit 3 of prim "VB" or "B1" must own
	}{
		{"vector-first", vector + scalar, 6, "X<3>"},
		{"scalar-first", scalar + vector, 6, "X<3>"},
		{"asserted", b1 + b2 + b3, 7, "X<3> .S0-4"},
		{"asserted-scalar-first", b2 + b3 + b1, 7, "X<3> .S0-4"},
	} {
		d := expandSource(t, "design ID\nperiod 50ns\n"+c.body)
		if len(d.Nets) != c.nets {
			t.Errorf("%s: %d nets, want %d", c.name, len(d.Nets), c.nets)
		}
		var bits []netlist.NetID
		for i := range d.Prims {
			switch p := &d.Prims[i]; p.Name {
			case "VB":
				bits = p.Out[0].Bits
			case "B1":
				for _, port := range p.In {
					bits = append(bits, port.Bits[0].Net)
				}
			}
		}
		id, ok := d.NetByName(c.bit)
		if !ok || len(bits) != 4 || bits[3] != id {
			t.Errorf("%s: NetByName(%q) = %d, %v; vector bits %v", c.name, c.bit, id, ok, bits)
		}
	}
}

// expandAlloc expands src and returns the bytes Expand allocated.
func expandAlloc(t *testing.T, src string) (*netlist.Design, uint64, error) {
	t.Helper()
	f, err := hdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, _, err := expand.Expand(f)
	runtime.ReadMemStats(&after)
	return d, after.TotalAlloc - before.TotalAlloc, err
}

// TestExpandHostileBitRanges keeps memory bounded by the bits a design
// creates, never by its bit indices, its unused declarations, its
// spellings or what it would have built past an error.  Each source is
// also a FuzzExpand seed.
func TestExpandHostileBitRanges(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{hugeIndexSource, "A, X<1000000000>, X<1000000001>"},
		{maxIndexSource, "A, X<9223372036854775806>, X<9223372036854775807>"},
	} {
		d, _, err := expandAlloc(t, c.src)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, n := range d.Nets {
			names = append(names, n.Name)
		}
		if got := strings.Join(names, ", "); got != c.want {
			t.Errorf("nets %s, want %s", got, c.want)
		}
	}

	const limit = 4 << 20
	for _, c := range []struct{ name, src, err string }{
		{"sparse high bits", sparseHighBitsSource(), ""},
		{"unreferenced wide local", unreferencedLocalSource(), ""},
		{"doubling macro used wrongly", doublingMacroSource(), `macro "M4" port O is 1 bits, connection "B" is 2`},
		{"aliased spellings", aliasSource(), ""},
	} {
		_, alloc, err := expandAlloc(t, c.src)
		if c.err == "" && err != nil || c.err != "" && (err == nil || !strings.HasSuffix(err.Error(), c.err)) {
			t.Errorf("%s: Expand error %v, want %q", c.name, err, c.err)
		}
		if alloc > limit {
			t.Errorf("%s: Expand allocated %d bytes, want at most %d", c.name, alloc, limit)
		}
	}

	// Every spelling of one vector names the same bits, so the census
	// counts them once: the tables end exactly full.
	d, _, err := expandAlloc(t, aliasSource())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nets) != aliasBits+2 || cap(d.Nets) != len(d.Nets) {
		t.Errorf("aliased spellings: %d nets of capacity %d, want %d of %[3]d", len(d.Nets), cap(d.Nets), aliasBits+2)
	}
}

const (
	hugeIndexSource = "design HUGE\nperiod 50ns\nbuf B delay=(1,2) (A) -> (X<1000000000:1000000001>)\n"
	maxIndexSource  = "design MAX\nperiod 50ns\nbuf B delay=(1,2) (A) -> (X<9223372036854775806:9223372036854775807>)\n"
)

// sparseHighBitsSource references 256 vectors at bit 65535 only.
func sparseHighBitsSource() string {
	var sb strings.Builder
	sb.WriteString("design SPARSE\nperiod 50ns\n")
	for i := 0; i < 256; i++ {
		fmt.Fprintf(&sb, "buf B%d delay=(1,2) (A) -> (N%d<65535>)\n", i, i)
	}
	return sb.String()
}

// unreferencedLocalSource uses, 64 times, a macro whose 65536-bit local
// no statement references.
func unreferencedLocalSource() string {
	var sb strings.Builder
	sb.WriteString("design LOCAL\nperiod 50ns\nmacro M {\n    param I, O\n    local BIG<0:65535>\n    buf delay=(1,2) (I) -> (O)\n}\n")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&sb, "use M U%d (I=A, O=Q%d)\n", i, i)
	}
	return sb.String()
}

// doublingMacroSource doubles a macro with a referenced 16384-bit local
// four times, and then connects two bits to its one-bit port: the census
// counts 262,144 local nets, and Pass 2 stops at the port, having
// created three.
func doublingMacroSource() string {
	var sb strings.Builder
	sb.WriteString("design DOUBLE\nperiod 50ns\nmacro M0 {\n    param I, O\n    local BIG<0:16383>\n" +
		"    buf delay=(1,2) (I) -> (BIG<0:16383>)\n    or delay=(1,2) (BIG<0:16383>) -> (O)\n}\n")
	for i := 1; i <= 4; i++ {
		fmt.Fprintf(&sb, "macro M%d {\n    param I, O\n    local T\n    use M%d L (I=I, O=T)\n    use M%[2]d R (I=T, O=O)\n}\n", i, i-1)
	}
	sb.WriteString("use M4 U (I=A, O=B<0:1>)\n")
	return sb.String()
}

// aliasBits is the width of the vector aliasSource spells eight ways.
const aliasBits = 2048

// aliasSource drives one asserted vector and checks it through seven
// more spellings that differ only in spaces and number format.
func aliasSource() string {
	var sb strings.Builder
	sb.WriteString("design ALIAS\nperiod 50ns\n")
	fmt.Fprintf(&sb, "buf D delay=(1,2) (A) -> (\"X .S0-4\"<0:%d>)\n", aliasBits-1)
	for i, sp := range []string{"X  .S0-4", " X .S0-4", "X .S0-4 ", "X .S 0-4", "X .S0.0-4", "X .S0-4.0", "  X  .S0.0-4.0"} {
		fmt.Fprintf(&sb, "setuphold C%d setup=1 hold=1 (%q<0:%d>, \"CK .P0-4\")\n", i, sp, aliasBits-1)
	}
	return sb.String()
}

// TestExpandDoesNotPinSource requires every string the design keeps to
// own its bytes.  Token texts are slices of the source, so a design
// keeping one would hold the whole source text alive.
func TestExpandDoesNotPinSource(t *testing.T) {
	srcs := []string{`design "ROOT LABELS"
period 50ns
param load = 1.0 range 0.5 2.0
and "WE GATE" delay=(1.0, 2.9) (-"CK .P2-3 L" &H, WRITE) -> ("WE")
buf B2 delay=(1.0 + 0.5*load, 2.0) (WE) -> (OUT)
case WRITE = 1
`}
	for _, pd := range pinDesigns(t) {
		srcs = append(srcs, pd.src)
	}
	for _, src := range srcs {
		d := expandSource(t, src)
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		hi := lo + uintptr(len(src))
		check := func(what, s string) {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && p >= lo && p < hi {
				t.Errorf("design %q: %s %q points into the source", d.Name, what, s)
			}
		}
		check("design name", d.Name)
		for _, n := range d.Nets {
			check("net name", n.Name)
			check("net base", n.Base)
		}
		for _, p := range d.Prims {
			check("primitive name", p.Name)
			for _, port := range p.In {
				for _, c := range port.Bits {
					check("directive", string(c.Directives))
				}
			}
		}
		for _, c := range d.Cases {
			check("case label", c.Label)
			for _, a := range c.Assignments {
				check("case base", a.Base)
			}
		}
		for _, p := range d.Params {
			check("parameter name", p.Name)
		}
	}
}

// Sources whose quoted scalars spell vector bits the way Builder.Net
// routes them.  Each is also a FuzzExpand seed.
const (
	// spillQuotedSource names bit 1000 of X by a quoted scalar while X's
	// table spans bits 0..3 only, then widens the table past it.
	spillQuotedSource = "design SPILL\nperiod 50ns\n" +
		"buf V delay=(1,2) (A) -> (X<0:3>)\n" +
		"buf S1 delay=(1,2) (\"X<1000>\") -> (P)\n" +
		"or W delay=(1,2) (X<0:1999>) -> (Q)\n" +
		"buf S2 delay=(1,2) (\"X<1000>\") -> (R)\n"
	// spillVectorSource reaches the same far-off bit by a range first.
	spillVectorSource = "design SPILL\nperiod 50ns\n" +
		"buf V delay=(1,2) (A) -> (X<0:3>)\n" +
		"buf S1 delay=(1,2) (X<1000>) -> (P)\n" +
		"buf S2 delay=(1,2) (\"X<1000>\") -> (R)\n" +
		"or W delay=(1,2) (X<0:1999>) -> (Q)\n"
	// ownNetsSource spells names that only resemble bit names.
	ownNetsSource = "design OWN\nperiod 50ns\n" +
		"buf V delay=(1,2) (A) -> (\"X .S0-4\"<0:3>)\n" +
		"buf S1 delay=(1,2) (\"X<3>  .S0-4\") -> (P)\n" +
		"buf S2 delay=(1,2) (\"X<3> .S0-4\") -> (R)\n" +
		"buf S3 delay=(1,2) (A) -> (Y<0:3>)\n" +
		"buf S4 delay=(1,2) (\"Y<03>\") -> (W)\n" +
		"buf S5 delay=(1,2) (\"Y<3>\") -> (Z)\n"
)

// TestExpandRoutedNetIdentity pins the identities a quoted scalar keeps.
// One that spells a vector bit exactly is that bit, even a far-off one
// no table covered when it was first named, before and after a later
// reference widens the table to cover it.  One whose spelling differs
// ("X<03>", "X<3>  .S0-4") is a net of its own.
func TestExpandRoutedNetIdentity(t *testing.T) {
	type pin struct {
		prim      string
		port, bit int    // In[port].Bits[bit], or Out[0].Bits[bit] when port < 0
		net       string // the full name of the net the pin must be on
	}
	spilled := []pin{
		{"V", -1, 3, "X<3>"}, {"S1", 0, 0, "X<1000>"}, {"S2", 0, 0, "X<1000>"},
		{"W", 3, 0, "X<3>"}, {"W", 1000, 0, "X<1000>"}, {"W", 1999, 0, "X<1999>"},
	}
	for _, c := range []struct {
		name, src string
		nets      int
		pins      []pin
	}{
		{"spill-quoted-first", spillQuotedSource, 2004, spilled},
		{"spill-vector-first", spillVectorSource, 2004, spilled},
		{"own-nets", ownNetsSource, 15, []pin{
			{"V", -1, 3, "X<3> .S0-4"}, {"S1", 0, 0, "X<3>  .S0-4"}, {"S2", 0, 0, "X<3> .S0-4"},
			{"S3", -1, 3, "Y<3>"}, {"S4", 0, 0, "Y<03>"}, {"S5", 0, 0, "Y<3>"},
		}},
	} {
		d := expandSource(t, c.src)
		if len(d.Nets) != c.nets {
			t.Errorf("%s: %d nets, want %d", c.name, len(d.Nets), c.nets)
		}
		prims := map[string]*netlist.Prim{}
		for i := range d.Prims {
			prims[d.Prims[i].Name] = &d.Prims[i]
		}
		for _, p := range c.pins {
			var got netlist.NetID
			if pr := prims[p.prim]; p.port < 0 {
				got = pr.Out[0].Bits[p.bit]
			} else {
				got = pr.In[p.port].Bits[p.bit].Net
			}
			if id, ok := d.NetByName(p.net); !ok || got != id {
				t.Errorf("%s: %s pin %d.%d is net %d %q, want %q", c.name, p.prim, p.port, p.bit, got, d.Nets[got].Name, p.net)
			}
		}
	}
}

// TestExpandConnectionsDisjoint requires every primitive's connection
// slices to be full (len == cap) and to share no memory with another's:
// internal/autocorr rewires a sink's connections in place, and an append
// to one slice must never write into the next.
func TestExpandConnectionsDisjoint(t *testing.T) {
	type span struct{ lo, hi uintptr }
	for _, pd := range pinDesigns(t) {
		d := expandSource(t, pd.src)
		var spans []span
		add := func(p *netlist.Prim, what string, data unsafe.Pointer, n, c int, size uintptr) {
			if n != c {
				t.Errorf("%s: primitive %q %s: len %d, cap %d", pd.name, p.Name, what, n, c)
			}
			if n > 0 {
				lo := uintptr(data)
				spans = append(spans, span{lo, lo + uintptr(n)*size})
			}
		}
		for i := range d.Prims {
			p := &d.Prims[i]
			for _, port := range p.In {
				add(p, "input "+port.Name, unsafe.Pointer(unsafe.SliceData(port.Bits)), len(port.Bits), cap(port.Bits), unsafe.Sizeof(netlist.Conn{}))
			}
			for _, port := range p.Out {
				add(p, "output "+port.Name, unsafe.Pointer(unsafe.SliceData(port.Bits)), len(port.Bits), cap(port.Bits), unsafe.Sizeof(netlist.NetID(0)))
			}
		}
		slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				t.Errorf("%s: connection slices [%#x, %#x) and [%#x, %#x) overlap", pd.name, spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
				break
			}
		}
	}
}
