package netlist

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

func TestKindPredicates(t *testing.T) {
	if !KOr.IsGate() || KReg.IsGate() || KMux2.IsGate() {
		t.Error("IsGate wrong")
	}
	if !KReg.IsStorage() || !KLatchRS.IsStorage() || KOr.IsStorage() {
		t.Error("IsStorage wrong")
	}
	if !KSetupHold.IsChecker() || !KMinPulse.IsChecker() || KReg.IsChecker() {
		t.Error("IsChecker wrong")
	}
	if KMux2.NumSelects() != 1 || KMux4.NumSelects() != 2 || KMux8.NumSelects() != 3 || KOr.NumSelects() != 0 {
		t.Error("NumSelects wrong")
	}
	if KMux2.NumMuxData() != 2 || KMux8.NumMuxData() != 8 {
		t.Error("NumMuxData wrong")
	}
	if KSetupHold.String() != "SETUP HOLD CHK" || KMux2.String() != "2 MUX" {
		t.Error("kind names wrong")
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestBuilderSmallCircuit(t *testing.T) {
	b := NewBuilder("smoke")
	b.SetPeriod(50 * tick.NS)
	ck := b.Net("CK .P2-3")
	d := b.Vector("DATA .S0-6", 4)
	q := b.Vector("Q", 4)
	b.Register("reg1", tick.R(1.5, 4.5), q, Conn{Net: ck}, Conns(d...))
	b.SetupHold("reg1 chk", tick.FromNS(2.5), tick.FromNS(1.5), Conns(d...), Conn{Net: ck})
	des, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(des.Nets) != 9 {
		t.Errorf("net count = %d, want 9", len(des.Nets))
	}
	if len(des.Prims) != 2 {
		t.Errorf("prim count = %d, want 2", len(des.Prims))
	}
	// Fanout: CK feeds both the register and the checker.
	if got := len(des.Nets[ck].Fanout); got != 2 {
		t.Errorf("CK fanout = %d, want 2", got)
	}
	// Driver: each Q bit driven by the register.
	if des.Nets[q[0]].Driver != 0 {
		t.Errorf("Q<0> driver = %d", des.Nets[q[0]].Driver)
	}
	if des.Nets[ck].Driver != NoDriver {
		t.Error("CK should be undriven")
	}
	// Assertion parsed onto the net.
	if des.Nets[ck].Assert == nil || des.Nets[d[0]].Assert == nil {
		t.Error("assertions not attached")
	}
	if des.Nets[d[2]].Base != "DATA<2>" {
		t.Errorf("vector bit base = %q", des.Nets[d[2]].Base)
	}
}

func TestBuilderNetDeduplication(t *testing.T) {
	b := NewBuilder("dedupe")
	b.SetPeriod(50 * tick.NS)
	a := b.Net("X .S0-4")
	c := b.Net("X .S0-4")
	if a != c {
		t.Error("same name produced two nets")
	}
	v1 := b.Vector("V .S0-4", 3)
	v2 := b.Vector("V .S0-4", 3)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Error("vector bits not deduplicated")
		}
	}
}

// TestBuilderReserveStaged gives Reserve counts far beyond what the
// design builds: each table holds room for firstStage entries until it
// is full, and then for no more than maxAhead, so overstated counts
// cost little.  Counts that are right leave the tables exactly full.
func TestBuilderReserveStaged(t *testing.T) {
	for _, c := range []struct {
		want, nets, capAfter int
	}{
		{1 << 30, 3, firstStage},
		{1 << 30, firstStage + 1, maxAhead},
		{firstStage + 5, firstStage + 5, firstStage + 5},
		{3, 3, 3},
	} {
		b := NewBuilder("staged")
		b.SetPeriod(50 * tick.NS)
		b.Reserve(c.want, c.want)
		if want := min(c.want, firstStage); cap(b.d.Nets) != want || cap(b.d.Prims) != want {
			t.Errorf("Reserve(%d): capacities %d and %d, want %d", c.want, cap(b.d.Nets), cap(b.d.Prims), want)
		}
		for i := 0; i < c.nets; i++ {
			id := b.Net(fmt.Sprintf("N%d", i))
			b.Buf(fmt.Sprintf("B%d", i), tick.R(1, 2), []NetID{id}, Conns(id))
		}
		if cap(b.d.Nets) != c.capAfter || cap(b.d.Prims) != c.capAfter {
			t.Errorf("Reserve(%d), %d nets: capacities %d and %d, want %d",
				c.want, c.nets, cap(b.d.Nets), cap(b.d.Prims), c.capAfter)
		}
		for i := 0; i < c.nets; i++ {
			if id := b.Net(fmt.Sprintf("N%d", i)); id != NetID(i) {
				t.Errorf("Reserve(%d): net N%d is %d after the tables grew", c.want, i, id)
			}
		}
	}
}

func TestBuilderBroadcast(t *testing.T) {
	b := NewBuilder("bcast")
	b.SetPeriod(50 * tick.NS)
	en := b.Net("EN .S0-8")
	d := b.Vector("D .S0-6", 8)
	q := b.Vector("Q", 8)
	b.Gate(KAnd, "and1", tick.R(1, 2), q, Conns(d...), Conns(en))
	des, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := des.Prims[0]
	if len(p.In[1].Bits) != 8 {
		t.Errorf("broadcast port width = %d, want 8", len(p.In[1].Bits))
	}
	for _, c := range p.In[1].Bits {
		if c.Net != en {
			t.Error("broadcast bits differ")
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
		want  string
	}{
		{"no period", func(b *Builder) { b.Net("X") }, "no clock period"},
		{"bad period", func(b *Builder) { b.SetPeriod(0) }, "non-positive period"},
		{"bad clock unit", func(b *Builder) { b.SetPeriod(50).SetClockUnit(0) }, "non-positive clock unit"},
		{"bad assertion", func(b *Builder) {
			b.SetPeriod(50 * tick.NS)
			b.Net("X .C(1,2")
		}, "assertion"},
		{"gate with mux kind", func(b *Builder) {
			b.SetPeriod(50 * tick.NS)
			b.Gate(KMux2, "g", tick.Range{}, []NetID{b.Net("O")}, Conns(b.Net("A")))
		}, "non-gate kind"},
		{"mux select count", func(b *Builder) {
			b.SetPeriod(50 * tick.NS)
			o, s, d0, d1 := b.Net("O"), b.Net("S"), b.Net("D0"), b.Net("D1")
			b.Mux(KMux2, "m", tick.Range{}, tick.Range{}, []NetID{o},
				Conns(s, s), Conns(d0), Conns(d1))
		}, "select bits"},
		{"mux data count", func(b *Builder) {
			b.SetPeriod(50 * tick.NS)
			o, s, d0 := b.Net("O"), b.Net("S"), b.Net("D0")
			b.Mux(KMux2, "m", tick.Range{}, tick.Range{}, []NetID{o}, Conns(s), Conns(d0))
		}, "data inputs"},
		{"port width mismatch", func(b *Builder) {
			b.SetPeriod(50 * tick.NS)
			q := b.Vector("Q", 4)
			d := b.Vector("D", 3)
			b.Register("r", tick.Range{}, q, Conn{Net: b.Net("CK")}, Conns(d...))
		}, "want 4"},
		{"double driver", func(b *Builder) {
			b.SetPeriod(50 * tick.NS)
			o := b.Net("O")
			a := b.Net("A")
			b.Buf("b1", tick.Range{}, []NetID{o}, Conns(a))
			b.Buf("b2", tick.Range{}, []NetID{o}, Conns(a))
		}, "driven by both"},
		{"conflicting assertions", func(b *Builder) {
			b.SetPeriod(50 * tick.NS)
			// Same base name, different assertions: two distinct nets whose
			// Base collides.
			b.Net("X .S0-4")
			b.Net("X .S0-5")
		}, "conflicting assertions"},
		{"bad directive", func(b *Builder) {
			b.SetPeriod(50 * tick.NS)
			b.Directive("Q", Conns(b.Net("A")))
		}, "invalid evaluation directive"},
		{"bad case value", func(b *Builder) {
			b.SetPeriod(50 * tick.NS)
			b.AddCase("c", Assign("X", values.VS))
		}, "not a logic constant"},
		{"bad wire", func(b *Builder) {
			b.SetPeriod(50 * tick.NS)
			b.SetWire(tick.Range{Min: 2, Max: 1}, b.Net("A"))
		}, "invalid wire delay"},
		{"zero-width vector", func(b *Builder) {
			b.SetPeriod(50 * tick.NS)
			b.Vector("V", 0)
		}, "non-positive width"},
	}
	for _, c := range cases {
		b := NewBuilder(c.name)
		c.build(b)
		_, err := b.Build()
		if err == nil {
			t.Errorf("%s: Build succeeded, want error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewBuilder("x").MustBuild() // no period
}

func TestWireDelay(t *testing.T) {
	b := NewBuilder("wires")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.R(0, 2))
	a := b.Net("ADR")
	x := b.Net("X")
	b.SetWire(tick.R(0, 6), a)
	des := b.MustBuild()

	if got := des.WireDelay(a, 'E'); got != tick.R(0, 6) {
		t.Errorf("override wire = %v", got)
	}
	if got := des.WireDelay(x, 'E'); got != tick.R(0, 2) {
		t.Errorf("default wire = %v", got)
	}
	// W and Z directives zero the wire.
	if got := des.WireDelay(a, 'W'); !got.IsZero() {
		t.Errorf("W-directive wire = %v, want zero", got)
	}
	if got := des.WireDelay(a, 'H'); !got.IsZero() {
		t.Errorf("H-directive wire = %v, want zero", got)
	}
}

func TestInvertHelper(t *testing.T) {
	cs := Conns(1, 2)
	inv := Invert(cs)
	if !inv[0].Invert || !inv[1].Invert {
		t.Error("Invert did not set flags")
	}
	if cs[0].Invert {
		t.Error("Invert mutated its argument")
	}
	if back := Invert(inv); back[0].Invert {
		t.Error("double inversion should cancel")
	}
}

func TestEnvDefaults(t *testing.T) {
	b := NewBuilder("env")
	b.SetPeriod(50 * tick.NS).SetClockUnit(tick.FromNS(6.25))
	des := b.MustBuild()
	env := des.Env()
	if env.ClockUnit != tick.FromNS(6.25) || env.Period != 50*tick.NS {
		t.Errorf("env = %+v", env)
	}
	// Zero clock unit falls back to 1 ns.
	d2 := &Design{Period: 50 * tick.NS}
	if d2.Env().ClockUnit != tick.NS {
		t.Error("fallback clock unit wrong")
	}
}

func TestNetByName(t *testing.T) {
	b := NewBuilder("names")
	b.SetPeriod(50 * tick.NS)
	id := b.Net("FOO .S0-4")
	des := b.MustBuild()
	if got, ok := des.NetByName("FOO .S0-4"); !ok || got != id {
		t.Error("NetByName lookup failed")
	}
	if _, ok := des.NetByName("BAR"); ok {
		t.Error("phantom net found")
	}
}

// TestNetByNameConcurrent looks names up from several goroutines at
// once, on a design and on its WithCases and PinParams copies, taken both
// before and after the design's name index is built.  Run it with -race.
func TestNetByNameConcurrent(t *testing.T) {
	b := NewBuilder("names")
	b.SetPeriod(50 * tick.NS)
	bus := b.Vector("BUS .S0-4", 16)
	des := b.MustBuild()
	designs := []*Design{des, des.WithCases(nil), des.PinParams(des.ParamDefaults())}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, d := range designs {
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(d *Design) {
					defer wg.Done()
					for i, want := range bus {
						if got, ok := d.NetByName(fmt.Sprintf("BUS<%d> .S0-4", i)); !ok || got != want {
							t.Errorf("NetByName(BUS<%d> .S0-4) = %d, %v, want %d", i, got, ok, want)
						}
					}
				}(d)
			}
		}
		wg.Wait()
		// Copies taken once the index exists share it.
		designs = append(designs, des.WithCases(nil), des.PinParams(des.ParamDefaults()))
	}
}

func TestCheckerShapes(t *testing.T) {
	b := NewBuilder("checkers")
	b.SetPeriod(50 * tick.NS)
	in := b.Vector("I .S0-4", 4)
	ck := b.Net("CK .P2-3")
	b.SetupHold("sh", 2500, 1500, Conns(in...), Conn{Net: ck})
	b.SetupRiseHoldFall("srhf", 3500, 1000, Conns(in...), Conn{Net: ck})
	b.MinPulse("mp", 5000, 3000, Conn{Net: ck})
	des, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if des.Prims[0].Setup != 2500 || des.Prims[1].Setup != 3500 || des.Prims[2].MinHigh != 5000 {
		t.Error("checker parameters lost")
	}
}

func TestNewNet(t *testing.T) {
	b := NewBuilder("newnet")
	b.SetPeriod(50 * tick.NS)
	b.Net("EXISTING")
	d := b.MustBuild()
	id, err := d.NewNet("FRESH", "FRESH")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := d.NetByName("FRESH"); !ok || got != id {
		t.Error("NewNet not indexed")
	}
	if _, err := d.NewNet("EXISTING", "EXISTING"); err == nil {
		t.Error("duplicate NewNet accepted")
	}
}

func TestDrivers(t *testing.T) {
	b := NewBuilder("drivers")
	b.SetPeriod(50 * tick.NS)
	b.SetWiredOr(true)
	bus := b.Net("BUS")
	a := b.Net("A .S0-25")
	b.Buf("D1", tick.Range{}, []NetID{bus}, Conns(a))
	b.Buf("D2", tick.Range{}, []NetID{bus}, Conns(a))
	d := b.MustBuild()
	if got := d.Drivers(bus); len(got) != 2 {
		t.Errorf("Drivers = %v", got)
	}
	if got := d.Drivers(a); len(got) != 0 {
		t.Errorf("input net has drivers: %v", got)
	}
}

func TestRFDelayValidation(t *testing.T) {
	b := NewBuilder("rf")
	b.SetPeriod(50 * tick.NS)
	o, a := b.Net("O"), b.Net("A .S0-25")
	b.GateRF(KBuf, "B", tick.Range{Min: 3, Max: 1}, tick.R(1, 2), []NetID{o}, Conns(a))
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "rise/fall") {
		t.Errorf("invalid RF range accepted: %v", err)
	}
	// RF on storage is rejected.
	b2 := NewBuilder("rf2")
	b2.SetPeriod(50 * tick.NS)
	q := b2.Net("Q")
	ck := b2.Net("CK .P20-30")
	pid := b2.Register("R", tick.R(1, 2), []NetID{q}, Conn{Net: ck}, Conns(b2.Net("D .S0-25")))
	d2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	d2.Prims[pid].RF = &RFDelay{Rise: tick.R(1, 2), Fall: tick.R(1, 2)}
	if err := d2.Check(); err == nil || !strings.Contains(err.Error(), "cannot carry") {
		t.Errorf("RF on storage accepted: %v", err)
	}
}

func TestRFEnvelope(t *testing.T) {
	rf := RFDelay{Rise: tick.R(2, 3), Fall: tick.R(5, 7)}
	if env := rf.Envelope(); env != (tick.Range{Min: 2000, Max: 7000}) {
		t.Errorf("envelope = %v", env)
	}
}

func TestStorageBuilders(t *testing.T) {
	b := NewBuilder("storage")
	b.SetPeriod(50 * tick.NS)
	b.SetPrecisionSkew(tick.R(-1, 1))
	b.SetClockSkew(tick.R(-5, 5))
	ck := b.Net("CK .P20-30")
	set, rst := b.Net("SET .S0-50"), b.Net("RST .S0-50")
	d := b.Vector("D .S0-30", 4)
	q1, q2, q3 := b.Vector("Q1", 4), b.Vector("Q2", 4), b.Vector("Q3", 4)
	b.RegisterRS("rrs", tick.R(1, 2), q1, Conn{Net: ck}, Conns(d...), Conn{Net: set}, Conn{Net: rst})
	b.Latch("lat", tick.R(1, 2), q2, Conn{Net: ck}, Conns(d...))
	b.LatchRS("lrs", tick.R(1, 2), q3, Conn{Net: ck}, Conns(d...), Conn{Net: set}, Conn{Net: rst})
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	des := b.MustBuild()
	if des.Prims[0].Kind != KRegRS || des.Prims[1].Kind != KLatch || des.Prims[2].Kind != KLatchRS {
		t.Errorf("kinds wrong: %v %v %v", des.Prims[0].Kind, des.Prims[1].Kind, des.Prims[2].Kind)
	}
	if des.PrecisionSkew != tick.R(-1, 1) || des.ClockSkew != tick.R(-5, 5) {
		t.Error("skew setters lost")
	}
}

func TestBaseMatchesAndNetsByBase(t *testing.T) {
	if !BaseMatches("ADR<3>", "ADR") || !BaseMatches("ADR", "ADR") {
		t.Error("BaseMatches false negative")
	}
	if BaseMatches("ADDR<3>", "ADR") || BaseMatches("ADR3", "ADR") || BaseMatches("ADR<3", "ADR") {
		t.Error("BaseMatches false positive")
	}
	b := NewBuilder("bybase")
	b.SetPeriod(50 * tick.NS)
	v := b.Vector("BUS .S0-25", 4)
	b.Net("OTHER")
	des := b.MustBuild()
	got := des.NetsByBase("BUS")
	if len(got) != 4 || got[0] != v[0] {
		t.Errorf("NetsByBase = %v", got)
	}
	if ids := b.NetsByBase("BUS"); len(ids) != 4 {
		t.Errorf("builder NetsByBase = %v", ids)
	}
}

// TestCheckAssertionConsistency pins Check's answer on a base name that
// carries an assertion: bits of one vector may differ in assertion only
// where their bit names differ, an unasserted and an asserted net of one
// base conflict whichever comes first, and the conflict reported is the
// first in net order.
func TestCheckAssertionConsistency(t *testing.T) {
	bits := func(b *Builder, name string, lo, hi int) {
		s, err := b.Symbol(name)
		if err != nil {
			t.Fatal(err)
		}
		b.Bits(s, lo, hi)
	}
	for _, c := range []struct {
		name  string
		build func(b *Builder)
		err   string
	}{
		{"disjoint bits", func(b *Builder) {
			bits(b, "X .S0-4", 0, 3)
			bits(b, "X .S0-6", 4, 7)
		}, ""},
		{"overlapping bits", func(b *Builder) {
			bits(b, "X .S0-4", 0, 3)
			bits(b, "X .S0-6", 3, 7)
		}, `netlist: signal "X<3>" carries conflicting assertions ".S0-4" and ".S0-6"`},
		{"unasserted first", func(b *Builder) {
			b.Net("X")
			b.Net("X .S0-4")
		}, `netlist: signal "X" carries conflicting assertions "" and ".S0-4"`},
		{"asserted first", func(b *Builder) {
			b.Net("X .S0-4")
			b.Net("Y")
			b.Net("X")
		}, `netlist: signal "X" carries conflicting assertions ".S0-4" and ""`},
		{"first conflict in net order", func(b *Builder) {
			b.Net("A .S0-4")
			b.Net("B .P2-3")
			b.Net("B .S0-6")
			b.Net("A")
		}, `netlist: signal "B" carries conflicting assertions ".P2-3" and ".S0-6"`},
		{"no asserted net", func(b *Builder) {
			b.Net("X")
			b.Vector("X", 4)
			b.Net("Y")
		}, ""},
	} {
		b := NewBuilder(c.name)
		b.SetPeriod(50 * tick.NS)
		c.build(b)
		_, err := b.Build()
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != c.err {
			t.Errorf("%s: Build error %q, want %q", c.name, got, c.err)
		}
	}
}

// TestBuilderNetRoutesBits requires a scalar name that spells a vector
// bit exactly to be that bit, whichever the Builder saw first.
func TestBuilderNetRoutesBits(t *testing.T) {
	b := NewBuilder("routed")
	b.SetPeriod(50 * tick.NS)
	v := b.Vector("X", 4)
	if id := b.Net("X<3>"); id != v[3] {
		t.Errorf(`Net("X<3>") after Vector("X", 4) = %d, want bit 3, net %d`, id, v[3])
	}
	for _, name := range []string{"X<03>", "X<+3>", "X <3>", "X<3> "} {
		if id := b.Net(name); id == v[3] {
			t.Errorf("Net(%q) = bit 3 of X, want a net of its own", name)
		}
	}
	y := b.Net("Y<2> .S0-4")
	if w := b.Vector("Y .S0-4", 4); w[2] != y {
		t.Errorf(`Vector("Y .S0-4", 4) bit 2 = %d, want net %d of Net("Y<2> .S0-4")`, w[2], y)
	}
}
