package store

import (
	"context"
	"sort"

	"scaldtv/internal/explore"
	"scaldtv/internal/netlist"
	"scaldtv/internal/report"
	"scaldtv/internal/verify"
)

// The verification-aware layer over the blob store, and the one path
// from a compiled design to a verified outcome for every front door
// (the CLI, watch mode, the daemon's stateless and session endpoints,
// cluster workers).  Content addresses come from verify.Fingerprint,
// exact hits answer with the stored report bytes, and misses run —
// saving their report for next time.  A corrupt blob reads as a miss,
// so it falls through to a run, never to an error the engine itself
// would not have produced.
//
// The store keeps reports, not fixed points: a caller that needs a live
// Verifier always runs, because rebuilding a converged session from disk
// costs more than relaxing it afresh, and the in-memory loop (sessions,
// watch mode) already keeps its Verifier between edits.
//
// One rule decides what the store may answer: every run except
// exploration, under any delay model.  A nil *Store is a valid store
// that holds nothing: Verify does a plain run, Update saves nothing, and
// the probes miss.

// Provenance names how a verification outcome was obtained.
type Provenance string

const (
	// Cached: the store held the report of the exact (design, options)
	// pair.  A stateless request is answered from it without running the
	// engine; a request that keeps a live Verifier still runs, and
	// answers with the stored bytes.
	Cached Provenance = "cached"
	// Warm named a run resumed from a stored fixed point of the same
	// structure.  The store keeps no fixed points any more, so no path
	// produces it; it stays for clients that still compare against it.
	Warm Provenance = "warm"
	// Cold: the store did not hold the report, so a full verification
	// ran; the store kept its report if it converged.
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
	// Incremental reports whether an Update resumed the retained fixed
	// point (its edit was parameter-only) instead of running in full.
	Incremental bool
	// V is the live session behind Res, for callers that keep verifying
	// (sessions, watch mode).  Nil for an exploration run and for every
	// stateless one.
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
// delay model are mixed as verify.Fingerprint mixes them.
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
	verify.MixModes(opts, mix)
	return h
}

// Verify verifies a compiled design through the store.  src must be
// the source text d was compiled from; it is persisted for the
// source-text probe.  retain asks for a live Verifier in the outcome.
//
// A stateless request (retain false) is answered from an exact hit's
// stored bytes without running the engine; a miss does a plain run
// and saves its report.  A retained request always runs, because only
// a run gives a live session; its provenance says whether the store
// already held the report.  On a hit the outcome carries the stored
// bytes and the blob is not written again.
//
// An exploration run (opts.Explore) goes to the exploration engine: it
// never reads or writes the store and retains no session.  With a nil
// store, Verify does a plain run and the outcome carries no provenance.
func Verify(ctx context.Context, s *Store, d *netlist.Design, src string, opts verify.Options, retain bool) (*Outcome, error) {
	if opts.Explore {
		// Exploration rewrites the case list, which a stored report of
		// the declared cases cannot answer.
		res, err := explore.RunContext(ctx, d, opts)
		if err != nil {
			return nil, err
		}
		return &Outcome{Res: res}, nil
	}
	var (
		key    uint64
		stored *Entry
	)
	if s != nil {
		key = verify.Fingerprint(d, opts)
		if e, ok := s.Get(key); ok {
			if !retain {
				return &Outcome{Report: e.Report, Provenance: Cached}, nil
			}
			stored = e
		}
	}
	out := &Outcome{}
	var err error
	if retain {
		out.V = verify.NewVerifier(d, opts)
		out.Res, err = out.V.VerifyContext(ctx)
	} else {
		out.Res, err = verify.RunContext(ctx, d, opts)
	}
	if err != nil {
		return nil, err
	}
	switch {
	case s == nil:
	case stored != nil:
		out.Report, out.Provenance = stored.Report, Cached
	default:
		out.Provenance = Cold
		s.save(out, key, src, opts)
	}
	return out, nil
}

// Update re-verifies a retained session against an edited design d
// compiled from src — only the forward cone of the edits when they are
// parameter-only, a full run otherwise — and saves the new report, so
// later lookups, in this process or after a restart, find it cached.
// Sessions and watch mode keep verifying through it; with a nil store
// it only updates V.  A canceled update drops V's retained state
// (abort-don't-corrupt), so the next Update runs in full.
func Update(ctx context.Context, s *Store, V *verify.Verifier, d *netlist.Design, src string, opts verify.Options) (*Outcome, error) {
	res, incremental, err := V.UpdateContext(ctx, d)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Res: res, Incremental: incremental, V: V}
	if s != nil {
		s.save(out, verify.Fingerprint(d, opts), src, opts)
	}
	return out, nil
}

// save persists the outcome's report under the source text its design
// was compiled from, rendering the report into out.Report.  A run that
// stopped at its pass cap is not a fixed point, and where it stopped may
// depend on the worker schedule, which the key leaves out, so it is
// neither saved nor rendered.  A best-effort cache never fails its
// caller.
func (s *Store) save(out *Outcome, key uint64, src string, opts verify.Options) {
	if !out.Res.Converged() {
		return
	}
	rep, err := out.JSON()
	if err != nil {
		return
	}
	_ = s.Put(&Entry{Key: key, SrcKey: SourceKey(src, opts), Source: src, Report: rep})
}
