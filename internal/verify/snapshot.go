package verify

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"scaldtv/internal/assertion"
	"scaldtv/internal/eval"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tape"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

// A Snapshot is the serializable image of a Verifier's retained fixed
// point: for every case, the converged per-net signals plus the sparse
// side tables (alternate clock outputs, wired-OR driver outputs) the
// relaxation committed.  It is deliberately free of process-local
// pointers — no interner handles, no memo-cache entries, no *Design —
// so it can cross a process boundary; Restore re-interns every waveform
// and rebuilds the derived tables (case mappings, wired-OR slots,
// constraint-site memos) from the design it is given.
//
// A Snapshot is taken only from a converged result: a run that hit the
// pass cap retains waveforms that are not a fixed point, which Reverify
// already refuses to resume, so Verifier.Snapshot refuses to persist
// them.
type Snapshot struct {
	// DesignFP is netlist.Fingerprint of the verified design.  Restore
	// rejects any design that hashes differently; the store's nearest-
	// match lookups recompile the stored source instead of forcing a
	// snapshot onto an edited design.
	DesignFP uint64
	Cases    []CaseSnapshot
}

// CaseSnapshot is one case's converged state.
type CaseSnapshot struct {
	Label     string
	Events    int // relaxation work counters of the run that converged
	PrimEvals int

	Sigs []eval.Signal // per net, in NetID order

	AltOut   []NetWave  // computed outputs of pinned nets (sparse)
	WiredOut []SlotWave // wired-OR per-driver outputs (sparse, by slot)
}

// NetWave pairs a net with a waveform.
type NetWave struct {
	Net  netlist.NetID
	Wave values.Waveform
}

// SlotWave pairs a wired-OR driver slot — the deterministic index
// initVerifier assigns each (net, driver) pair — with that driver's
// latest output.
type SlotWave struct {
	Slot int
	Wave values.Waveform
}

// snapshotVersion is bumped on any change to the binary layout; decoders
// reject other versions so a stale blob degrades to a cache miss, never
// a misread.
const snapshotVersion = 1

// snapshotMagic guards against feeding arbitrary files to the decoder.
var snapshotMagic = []byte("SCTVSNAP")

// Snapshot captures the session's retained fixed point.  It fails when
// the session has no retained state (no Verify yet, or the last run was
// canceled) and when the last result contains a convergence violation.
func (V *Verifier) Snapshot() (*Snapshot, error) {
	if V.perCase == nil || V.res == nil {
		return nil, fmt.Errorf("verify: no retained state to snapshot")
	}
	for _, viol := range V.res.Violations {
		if viol.Kind == ConvergenceViolation {
			return nil, fmt.Errorf("verify: refusing to snapshot a non-converged result")
		}
	}
	snap := &Snapshot{
		DesignFP: netlist.Fingerprint(V.d),
		Cases:    make([]CaseSnapshot, len(V.perCase)),
	}
	for ci, rc := range V.perCase {
		cs := CaseSnapshot{
			Label:     V.cases[ci].Label,
			Events:    V.res.Cases[ci].Events,
			PrimEvals: V.res.Cases[ci].PrimEvals,
			Sigs:      append([]eval.Signal(nil), rc.sigs...),
		}
		for id, set := range rc.altOutSet {
			if set {
				cs.AltOut = append(cs.AltOut, NetWave{Net: netlist.NetID(id), Wave: rc.altOutW[id]})
			}
		}
		for slot, set := range rc.wiredOutSet {
			if set {
				cs.WiredOut = append(cs.WiredOut, SlotWave{Slot: slot, Wave: rc.wiredOutW[slot]})
			}
		}
		snap.Cases[ci] = cs
	}
	return snap, nil
}

// Restore rebuilds a live Verifier session from a snapshot of the given
// design.  The restored session is equivalent to the one that took the
// snapshot: its Result carries the same violations, margins, undefined
// listing and kept waveforms (so reports are byte-identical), and
// subsequent Reverify/Update calls resume incrementally from the
// restored fixed point.  Interner handles and the evaluation memo are
// process-local, so they are rebuilt from scratch — every waveform is
// re-interned as it is installed.
//
// Violations, margins and the constraint-site memos are recomputed by
// re-running the (cheap, relaxation-free) checking phase over the
// restored waveforms; this doubles as an integrity check, since a
// snapshot that decodes but carries wrong waveforms cannot silently
// poison later incremental runs with stale memoized outcomes.
func Restore(d *netlist.Design, opts Options, snap *Snapshot) (*Verifier, error) {
	if snap == nil {
		return nil, fmt.Errorf("verify: Restore with nil snapshot")
	}
	if got := netlist.Fingerprint(d); got != snap.DesignFP {
		return nil, fmt.Errorf("verify: snapshot is of a different design (fingerprint %016x, want %016x)", snap.DesignFP, got)
	}
	if err := d.Check(); err != nil {
		return nil, err
	}
	cases := d.Cases
	if len(cases) == 0 {
		cases = []netlist.Case{{Label: ""}}
	}
	if len(cases) != len(snap.Cases) {
		return nil, fmt.Errorf("verify: snapshot has %d cases, design has %d", len(snap.Cases), len(cases))
	}

	V := NewVerifier(d, opts)
	buildStart := time.Now()
	prog, err := tape.For(d)
	if err != nil {
		return nil, err
	}
	if err := prog.Refresh(d); err != nil {
		return nil, err
	}
	v0, res, err := initVerifier(d, opts, prog)
	if err != nil {
		return nil, err
	}

	perCase := make([]*verifier, len(cases))
	for ci := range cases {
		cs := &snap.Cases[ci]
		if cs.Label != cases[ci].Label {
			return nil, fmt.Errorf("verify: snapshot case %d is %q, design declares %q", ci, cs.Label, cases[ci].Label)
		}
		if len(cs.Sigs) != len(d.Nets) {
			return nil, fmt.Errorf("verify: snapshot case %q has %d signals, design has %d nets", cs.Label, len(cs.Sigs), len(d.Nets))
		}
		rc := v0.clone()
		rc.caseMap, err = caseMapping(d, cases[ci])
		if err != nil {
			return nil, err
		}
		for i, sig := range cs.Sigs {
			rc.setSig(netlist.NetID(i), sig)
		}
		for _, nw := range cs.AltOut {
			if nw.Net < 0 || int(nw.Net) >= len(d.Nets) {
				return nil, fmt.Errorf("verify: snapshot case %q pins net %d out of range", cs.Label, nw.Net)
			}
			rc.altOutW[nw.Net] = nw.Wave
			rc.altOutSet[nw.Net] = true
		}
		for _, sw := range cs.WiredOut {
			if sw.Slot < 0 || sw.Slot >= len(rc.wiredOutW) {
				return nil, fmt.Errorf("verify: snapshot case %q names wired-OR slot %d out of range", cs.Label, sw.Slot)
			}
			rc.wiredOutW[sw.Slot] = sw.Wave
			rc.wiredOutSet[sw.Slot] = true
		}

		// Re-run the checking phase to rebuild the per-site memo and the
		// result's violations and margins in check's canonical order.
		rc.sites = make([]siteChecks, len(d.Prims))
		viols := rc.check(cs.Label)
		cr := CaseResult{
			Label:      cs.Label,
			Events:     cs.Events,
			PrimEvals:  cs.PrimEvals,
			Violations: viols,
		}
		if opts.KeepWaves {
			cr.Waves = make([]values.Waveform, len(rc.sigs))
			for i, s := range rc.sigs {
				cr.Waves[i] = s.Wave
			}
		}
		res.Cases = append(res.Cases, cr)
		res.Violations = append(res.Violations, viols...)
		if opts.Margins {
			res.Margins = append(res.Margins, rc.margins...)
		}
		rc.margins = nil
		res.Stats.Events += cs.Events
		res.Stats.PrimEvals += cs.PrimEvals
		perCase[ci] = rc
	}

	res.Stats.Cases = len(cases)
	res.Stats.Workers = opts.workers(len(cases))
	progStats(prog, &res.Stats)
	res.Stats.BuildTime = time.Since(buildStart)
	res.Stats.Cached = true
	V.cases, V.perCase, V.res = cases, perCase, res
	return V, nil
}

// Fingerprint returns the content address of a verification outcome: the
// design fingerprint mixed with every option that can influence the
// report — the resolved pass cap (runs with different caps can disagree
// on convergence) and the forced waveforms (they replace initial seeds).
// Workers, KeepWaves and Margins are deliberately excluded: the JSON
// report is bit-identical across all of them (locked by
// TestJSONReportByteDeterminism), so runs differing only there share one
// cache entry.
func Fingerprint(d *netlist.Design, opts Options) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(x>>(8*i)))) * prime64
		}
	}
	mix(netlist.Fingerprint(d))
	mix(uint64(opts.passCap(len(d.Prims))))
	ids := make([]netlist.NetID, 0, len(opts.Force))
	for id := range opts.Force {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	mix(uint64(len(ids)))
	for _, id := range ids {
		mix(uint64(id))
		mix(opts.Force[id].Fingerprint())
	}
	// Result-affecting modes beyond the relaxation parameters: explore
	// rewrites the case list, statistical mode adds SiteProbs, analytic
	// mode pins the delays at a parameter point and adds MarginSurface.
	// Snapshots cannot carry any of those sections, so their results
	// must never collide with plain runs in the store (the scaldtv
	// driver additionally skips the store entirely for those modes).
	// The model contributes its canonical key string — "" for worst
	// case, "statistical" for the default grid — preserving the
	// fingerprint bytes of the former string-typed field.
	if opts.Explore {
		mix(1)
	} else {
		mix(0)
	}
	key := delayModelKey(opts.Delays)
	for _, b := range []byte(key) {
		mix(uint64(b))
	}
	mix(uint64(len(key)))
	return h
}

// encBuf appends the snapshot wire format: varint-coded integers and
// length-prefixed byte strings.
type encBuf struct{ b []byte }

func (e *encBuf) u(x uint64) { e.b = binary.AppendUvarint(e.b, x) }
func (e *encBuf) i(x int64)  { e.b = binary.AppendVarint(e.b, x) }
func (e *encBuf) str(s string) {
	e.u(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encBuf) wave(w values.Waveform) {
	e.i(int64(w.Period))
	e.i(int64(w.Skew))
	e.u(uint64(len(w.Segs)))
	for _, s := range w.Segs {
		e.b = append(e.b, byte(s.V))
		e.i(int64(s.W))
	}
}

// MarshalBinary encodes the snapshot in the versioned wire format.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	e := &encBuf{b: make([]byte, 0, 1024)}
	e.b = append(e.b, snapshotMagic...)
	e.u(snapshotVersion)
	e.u(s.DesignFP)
	e.u(uint64(len(s.Cases)))
	for i := range s.Cases {
		cs := &s.Cases[i]
		e.str(cs.Label)
		e.u(uint64(cs.Events))
		e.u(uint64(cs.PrimEvals))
		e.u(uint64(len(cs.Sigs)))
		for _, sig := range cs.Sigs {
			e.wave(sig.Wave)
			e.str(string(sig.Dirs))
		}
		e.u(uint64(len(cs.AltOut)))
		for _, nw := range cs.AltOut {
			e.u(uint64(nw.Net))
			e.wave(nw.Wave)
		}
		e.u(uint64(len(cs.WiredOut)))
		for _, sw := range cs.WiredOut {
			e.u(uint64(sw.Slot))
			e.wave(sw.Wave)
		}
	}
	return e.b, nil
}

// decBuf consumes the wire format, latching the first error: every read
// after a malformed field returns zero values, and the caller checks err
// once at the end.
type decBuf struct {
	b   []byte
	err error
}

func (d *decBuf) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("verify: snapshot decode: "+format, args...)
	}
}

func (d *decBuf) u() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decBuf) i() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

// count reads a collection length and bounds it by the bytes remaining
// (each element costs at least min bytes), so corrupt input cannot force
// a huge allocation.
func (d *decBuf) count(min int) int {
	n := d.u()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(len(d.b)/min)+1 {
		d.fail("implausible element count %d with %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decBuf) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	if n > len(d.b) {
		d.fail("truncated string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decBuf) wave() values.Waveform {
	var w values.Waveform
	w.Period = tick.Time(d.i())
	w.Skew = tick.Time(d.i())
	n := d.count(2)
	if d.err != nil {
		return w
	}
	if n > 0 {
		w.Segs = make([]values.Segment, n)
	}
	for i := 0; i < n; i++ {
		if d.err != nil {
			return w
		}
		if len(d.b) == 0 {
			d.fail("truncated segment")
			return w
		}
		w.Segs[i].V = values.Value(d.b[0])
		d.b = d.b[1:]
		w.Segs[i].W = tick.Time(d.i())
	}
	if d.err == nil {
		if err := w.Check(); err != nil {
			d.fail("invalid waveform: %v", err)
		}
	}
	return w
}

// UnmarshalSnapshot decodes a snapshot blob, rejecting wrong magic,
// unknown versions and malformed or truncated content.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != string(snapshotMagic) {
		return nil, fmt.Errorf("verify: snapshot decode: bad magic")
	}
	d := &decBuf{b: data[len(snapshotMagic):]}
	if v := d.u(); d.err == nil && v != snapshotVersion {
		return nil, fmt.Errorf("verify: snapshot decode: version %d, want %d", v, snapshotVersion)
	}
	s := &Snapshot{DesignFP: d.u()}
	nCases := d.count(1)
	for ci := 0; ci < nCases && d.err == nil; ci++ {
		var cs CaseSnapshot
		cs.Label = d.str()
		cs.Events = int(d.u())
		cs.PrimEvals = int(d.u())
		nSigs := d.count(4)
		if d.err == nil && nSigs > 0 {
			cs.Sigs = make([]eval.Signal, nSigs)
		}
		for i := 0; i < nSigs && d.err == nil; i++ {
			cs.Sigs[i].Wave = d.wave()
			cs.Sigs[i].Dirs = assertion.Directives(d.str())
		}
		nAlt := d.count(4)
		for i := 0; i < nAlt && d.err == nil; i++ {
			cs.AltOut = append(cs.AltOut, NetWave{Net: netlist.NetID(d.u()), Wave: d.wave()})
		}
		nWired := d.count(4)
		for i := 0; i < nWired && d.err == nil; i++ {
			cs.WiredOut = append(cs.WiredOut, SlotWave{Slot: int(d.u()), Wave: d.wave()})
		}
		s.Cases = append(s.Cases, cs)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("verify: snapshot decode: %d trailing bytes", len(d.b))
	}
	return s, nil
}
