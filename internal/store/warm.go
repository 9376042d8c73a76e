package store

import (
	"context"
	"sort"

	"scaldtv/internal/expand"
	"scaldtv/internal/hdl"
	"scaldtv/internal/netlist"
	"scaldtv/internal/report"
	"scaldtv/internal/serr"
	"scaldtv/internal/verify"
)

// The verification-aware layer over the blob store: content addresses
// come from verify.Fingerprint, exact hits answer with the stored
// report bytes, near hits (same structure, edited parameters) restore
// the stored snapshot and re-verify only the diff cone, and misses run
// cold — saving their outcome for next time.  Every degraded path —
// corrupt blob, undecodable snapshot, stored source that no longer
// compiles — falls through to the next colder path, never to an error
// the engine itself would not have produced.

// Provenance names how a verification outcome was obtained.
type Provenance string

const (
	// Cached: the exact (design, options) pair was already verified; the
	// stored report was served without running the engine.
	Cached Provenance = "cached"
	// Warm: a structurally identical snapshot was restored and only the
	// edit's forward cone was re-verified.
	Warm Provenance = "warm"
	// Cold: a full verification ran.
	Cold Provenance = "cold"
)

// Outcome is the result of a store-mediated verification.
type Outcome struct {
	Res        *verify.Result
	Report     []byte // rendered JSON report; on a cached hit, the stored bytes
	Provenance Provenance
	// Incremental reports whether a warm start actually resumed
	// incrementally (it can fall back to a full run when the stored
	// snapshot refuses to restore).
	Incremental bool
	// V is the live session behind Res, for callers that keep verifying
	// (sessions, watch mode).  Nil only when restore is false and the
	// outcome was served straight from the store.
	V *verify.Verifier
}

// ServeReport answers an exact store hit with the stored report bytes,
// touching neither the compiler output nor the engine.  This is the
// stateless fast path: a hit costs one directory scan and one checksum
// pass.
func (s *Store) ServeReport(d *netlist.Design, opts verify.Options) ([]byte, bool) {
	e, ok := s.Get(verify.Fingerprint(d, opts))
	if !ok {
		return nil, false
	}
	return e.Report, true
}

// ServeReportSource answers an exact store hit from the raw source text
// alone — no parse, no elaboration.  GetBySource byte-compares the
// stored source, so equal SourceKey with different text is a miss, and
// identical (source, options) implies an identical compiled design and
// therefore the identical verification fingerprint the entry was
// verified under.  Textually different spellings of the same design
// miss here and land on the post-compile ServeReport probe instead.
func (s *Store) ServeReportSource(src string, opts verify.Options) ([]byte, bool) {
	e, ok := s.GetBySource(SourceKey(src, opts), src)
	if !ok {
		return nil, false
	}
	return e.Report, true
}

// SourceKey is the pre-compile content address: an FNV-64a over the raw
// source text and the report-relevant options.  Unlike
// verify.Fingerprint it mixes the raw MaxPasses (resolving the pass cap
// needs the compiled primitive count), so two option sets that resolve
// to the same cap can map to different source keys — that only costs a
// duplicate store entry, never a wrong answer, because GetBySource
// validates the stored source byte for byte.  The explore flag and the
// delay model are mixed as verify.Fingerprint mixes them, except for a
// plain worst-case run, whose key keeps its original bytes so existing
// stores still answer it.
func SourceKey(src string, opts verify.Options) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(src); i++ {
		h = (h ^ uint64(src[i])) * prime64
	}
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(x>>(8*i)))) * prime64
		}
	}
	mix(uint64(opts.MaxPasses))
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
	if opts.Explore || !verify.IsWorstCase(opts.Delays) {
		verify.MixModes(opts, mix)
	}
	return h
}

// Verify runs a verification through the store.  src must be the source
// text d was compiled from — it is persisted so a later near hit can
// recompile the stored design and Diff it against the new one.  retain
// asks for a live Verifier in the outcome even on an exact hit (at the
// cost of restoring the snapshot); stateless callers pass false and an
// exact hit returns only the stored report bytes.
func Verify(ctx context.Context, s *Store, d *netlist.Design, src string, opts verify.Options, retain bool) (*Outcome, error) {
	key := verify.Fingerprint(d, opts)
	structFP := netlist.StructuralFingerprint(d)

	if e, ok := s.Get(key); ok {
		if !retain {
			return &Outcome{Report: e.Report, Provenance: Cached}, nil
		}
		if V, ok := restoreEntry(e, d, opts); ok {
			return &Outcome{Res: V.Result(), Report: e.Report, Provenance: Cached, V: V}, nil
		}
		// The stored state refuses to restore (e.g. written by a future
		// snapshot version): treat the entry as a miss.
	}

	if out, ok := warmVerify(ctx, s, d, src, opts, structFP); ok {
		return out, nil
	} else if ctx.Err() != nil {
		// The warm attempt was canceled, not merely unusable.
		return nil, serr.Wrap(serr.Canceled, ctx.Err())
	}

	V := verify.NewVerifier(d, opts)
	res, err := V.VerifyContext(ctx)
	if err != nil {
		return nil, err
	}
	rep, err := report.JSON(res)
	if err != nil {
		return nil, err
	}
	save(s, key, structFP, src, opts, rep, V)
	return &Outcome{Res: res, Report: rep, Provenance: Cold, V: V}, nil
}

// warmVerify attempts the near-hit path: find a stored entry with the
// same design structure, recompile its source, restore its snapshot and
// Update the session to the new design, re-verifying only the diff
// cone.  ok=false means the caller should fall through to a cold run.
func warmVerify(ctx context.Context, s *Store, d *netlist.Design, src string, opts verify.Options, structFP uint64) (*Outcome, bool) {
	e, ok := s.Nearest(structFP)
	if !ok {
		return nil, false
	}
	old, err := compile(e.Source)
	if err != nil || netlist.StructuralFingerprint(old) != structFP {
		return nil, false
	}
	V, ok := restoreEntry(e, old, opts)
	if !ok {
		return nil, false
	}
	res, incremental, err := V.UpdateContext(ctx, d)
	if err != nil {
		// A canceled or genuinely failing update must not silently rerun;
		// the caller distinguishes cancellation and propagates it.
		return nil, false
	}
	rep, err := report.JSON(res)
	if err != nil {
		return nil, false
	}
	save(s, verify.Fingerprint(d, opts), structFP, src, opts, rep, V)
	return &Outcome{Res: res, Report: rep, Provenance: Warm, Incremental: incremental, V: V}, true
}

// Save persists a session's current fixed point under the source text
// its design was compiled from, so future lookups — exact or structural
// — find it.  Non-converged results are not persistable and simply are
// not saved; a best-effort cache never fails its caller.
func Save(s *Store, src string, opts verify.Options, V *verify.Verifier) {
	res := V.Result()
	if res == nil {
		return
	}
	rep, err := report.JSON(res)
	if err != nil {
		return
	}
	d := V.Design()
	save(s, verify.Fingerprint(d, opts), netlist.StructuralFingerprint(d), src, opts, rep, V)
}

func save(s *Store, key, structFP uint64, src string, opts verify.Options, rep []byte, V *verify.Verifier) {
	snap, err := V.Snapshot()
	if err != nil {
		return
	}
	state, err := snap.MarshalBinary()
	if err != nil {
		return
	}
	_ = s.Put(&Entry{Key: key, StructFP: structFP, SrcKey: SourceKey(src, opts), Source: src, Report: rep, State: state})
}

// restoreEntry decodes and restores a stored snapshot against the given
// design; any failure reads as a miss.
func restoreEntry(e *Entry, d *netlist.Design, opts verify.Options) (*verify.Verifier, bool) {
	snap, err := verify.UnmarshalSnapshot(e.State)
	if err != nil {
		return nil, false
	}
	V, err := verify.Restore(d, opts, snap)
	if err != nil {
		return nil, false
	}
	return V, true
}

func compile(src string) (*netlist.Design, error) {
	f, err := hdl.Parse(src)
	if err != nil {
		return nil, err
	}
	d, _, err := expand.Expand(f)
	return d, err
}
