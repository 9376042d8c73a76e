package verify

import (
	"sort"

	"scaldtv/internal/netlist"
)

// Fingerprint returns the content address of a verification outcome: the
// design fingerprint mixed with every option that can influence the
// report — the resolved pass cap (runs with different caps can disagree
// on convergence), the forced waveforms (they replace initial seeds), and
// the explore flag and delay model (MixModes).
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
	MixModes(opts, mix)
	return h
}

// MixModes feeds mix the result-affecting modes beyond the relaxation
// parameters, each of which renders a different report of the same
// design: explore rewrites the case list, statistical mode adds
// SiteProbs, and analytic mode pins the delays at a parameter point and
// adds MarginSurface.  The model contributes its canonical key string —
// "" for worst case, "statistical" for the default grid — preserving the
// fingerprint bytes of the former string-typed field.  Fingerprint and
// store.SourceKey both mix the modes through here, so a stored report of
// one mode never answers a request for another.
func MixModes(opts Options, mix func(uint64)) {
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
}
