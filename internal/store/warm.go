package store

import (
	"context"
	"sort"

	"scaldtv/internal/expand"
	"scaldtv/internal/explore"
	"scaldtv/internal/hdl"
	"scaldtv/internal/netlist"
	"scaldtv/internal/report"
	"scaldtv/internal/serr"
	"scaldtv/internal/verify"
)

// The verification-aware layer over the blob store, and the one path
// from a compiled design to a verified outcome for every front door
// (the CLI, watch mode, the daemon's stateless and session endpoints,
// cluster workers).  Content addresses come from verify.Fingerprint,
// exact hits answer with the stored report bytes, near hits (same
// structure, edited parameters) restore the stored snapshot and
// re-verify only the diff cone, and misses run cold — saving their
// outcome for next time.  Every degraded path — corrupt blob,
// undecodable snapshot, stored source that no longer compiles — falls
// through to the next colder path, never to an error the engine itself
// would not have produced.
//
// One rule decides what the store may answer: every run except
// exploration, under any delay model.  A nil *Store is a valid store
// that holds nothing: Verify does a plain run, Update saves nothing, and
// the probes miss.

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

// Outcome is the result of a verification through Verify or Update.
type Outcome struct {
	Res *verify.Result
	// Report is the rendered JSON report: the stored bytes on a cached
	// hit, the bytes just saved for a run the store kept, and nil until
	// JSON renders it otherwise.
	Report []byte
	// Provenance says how the store answered Verify: empty with a nil
	// store, for an exploration run, and for every Update.
	Provenance Provenance
	// Incremental reports whether the run resumed a retained fixed point
	// — a warm start, or an Update whose edit was parameter-only —
	// instead of running in full.
	Incremental bool
	// V is the live session behind Res, for callers that keep verifying
	// (sessions, watch mode).  Nil for an exploration run, and for a
	// stateless one answered from the store or run without a store.
	V *verify.Verifier
}

// JSON returns the outcome's JSON report, rendering it from Res on first
// use, so a report is rendered at most once and only when some caller
// sends or stores it.
func (o *Outcome) JSON() ([]byte, error) {
	if o.Report == nil {
		rep, err := report.JSON(o.Res)
		if err != nil {
			return nil, err
		}
		o.Report = rep
	}
	return o.Report, nil
}

// ServeReport answers an exact store hit with the stored report bytes,
// touching neither the compiler output nor the engine.  This is the
// stateless fast path: a hit costs one directory scan and one checksum
// pass.  It misses on a nil store and for an exploration run, which the
// store never answers.
func (s *Store) ServeReport(d *netlist.Design, opts verify.Options) ([]byte, bool) {
	if s == nil || opts.Explore {
		return nil, false
	}
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
// Like ServeReport it misses on a nil store and for an exploration run.
func (s *Store) ServeReportSource(src string, opts verify.Options) ([]byte, bool) {
	if s == nil || opts.Explore {
		return nil, false
	}
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

// Verify verifies a compiled design through the store.  src must be
// the source text d was compiled from — it is persisted so a later near
// hit can recompile the stored design and Diff it against the new one.
// retain asks for a live Verifier in the outcome even on an exact hit
// (at the cost of restoring the snapshot); stateless callers pass false
// and an exact hit returns only the stored report bytes.
//
// An exploration run (opts.Explore) goes to the exploration engine: it
// never reads or writes the store and retains no session.  With a nil
// store, Verify does a plain run and the outcome carries no provenance.
func Verify(ctx context.Context, s *Store, d *netlist.Design, src string, opts verify.Options, retain bool) (*Outcome, error) {
	if opts.Explore {
		// Exploration rewrites the case list, which a stored fixed point
		// of the declared cases cannot answer.
		res, err := explore.RunContext(ctx, d, opts)
		if err != nil {
			return nil, err
		}
		return &Outcome{Res: res}, nil
	}
	if s == nil && !retain {
		res, err := verify.RunContext(ctx, d, opts)
		if err != nil {
			return nil, err
		}
		return &Outcome{Res: res}, nil
	}

	var key, structFP uint64
	if s != nil {
		key = verify.Fingerprint(d, opts)
		structFP = warmKey(d, opts)
		if e, ok := s.Get(key); ok {
			if !retain {
				return &Outcome{Report: e.Report, Provenance: Cached}, nil
			}
			if V, ok := restoreEntry(e, d, opts); ok {
				return &Outcome{Res: V.Result(), Report: e.Report, Provenance: Cached, V: V}, nil
			}
			// The stored state refuses to restore (e.g. written by a
			// future snapshot version): treat the entry as a miss.
		}
		if out, ok := s.warmVerify(ctx, d, src, opts, key, structFP); ok {
			return out, nil
		} else if ctx.Err() != nil {
			// The warm attempt was canceled, not merely unusable.
			return nil, serr.Wrap(serr.Canceled, ctx.Err())
		}
	}

	V := verify.NewVerifier(d, opts)
	res, err := V.VerifyContext(ctx)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Res: res, V: V}
	if s != nil {
		out.Provenance = Cold
		s.save(out, key, structFP, src, opts)
	}
	return out, nil
}

// warmVerify attempts the near-hit path: find a stored entry with the
// same warm key, recompile its source, restore its snapshot and Update
// the session to the new design, re-verifying only the diff cone.
// ok=false means the caller should fall through to a cold run.
func (s *Store) warmVerify(ctx context.Context, d *netlist.Design, src string, opts verify.Options, key, structFP uint64) (*Outcome, bool) {
	e, ok := s.Nearest(structFP)
	if !ok {
		return nil, false
	}
	old, err := compile(e.Source)
	if err != nil || warmKey(old, opts) != structFP {
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
	out := &Outcome{Res: res, Provenance: Warm, Incremental: incremental, V: V}
	s.save(out, key, structFP, src, opts)
	return out, true
}

// Update re-verifies a retained session against an edited design d
// compiled from src — only the forward cone of the edits when they are
// parameter-only, a full run otherwise — and saves the new fixed point,
// so later lookups, in this process or after a restart, find it cached
// or warm-startable.  Sessions and watch mode keep verifying through it;
// with a nil store it only updates V.  A canceled update drops V's
// retained state (abort-don't-corrupt), so the next Update runs in full.
func Update(ctx context.Context, s *Store, V *verify.Verifier, d *netlist.Design, src string, opts verify.Options) (*Outcome, error) {
	res, incremental, err := V.UpdateContext(ctx, d)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Res: res, Incremental: incremental, V: V}
	if s != nil {
		s.save(out, verify.Fingerprint(d, opts), warmKey(d, opts), src, opts)
	}
	return out, nil
}

// warmKey is the key a warm start looks its snapshot up by (an entry's
// StructFP): the design's structural fingerprint, with the analytic
// model's parameter point mixed in.  Restore pins a design's delays at
// the request's point and refuses a snapshot pinned at another, so a
// parameter sweep must not find, recompile and fail to restore the
// previous point's entry on every request.  The other models keep the
// plain structural fingerprint, so existing stores still warm-start
// them.
func warmKey(d *netlist.Design, opts verify.Options) uint64 {
	h := netlist.StructuralFingerprint(d)
	if _, ok := opts.Delays.(verify.AnalyticDelays); ok {
		const prime64 = 1099511628211
		verify.MixModes(opts, func(x uint64) {
			for i := 0; i < 8; i++ {
				h = (h ^ uint64(byte(x>>(8*i)))) * prime64
			}
		})
	}
	return h
}

// save persists the outcome's fixed point under the source text its
// design was compiled from, rendering its report into out.Report.  A
// non-converged result is not persistable and simply is not saved (nor
// rendered); a best-effort cache never fails its caller.
func (s *Store) save(out *Outcome, key, structFP uint64, src string, opts verify.Options) {
	snap, err := out.V.Snapshot()
	if err != nil {
		return
	}
	state, err := snap.MarshalBinary()
	if err != nil {
		return
	}
	rep, err := out.JSON()
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
