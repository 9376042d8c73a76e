// Package stats reproduces the paper's execution and storage accounting:
// the phase-timing breakdown of Table 3-1, the primitive census of
// Table 3-2, and the storage model of Table 3-3.
//
// Storage is modelled with the paper's conventions: the S-1 Mark I PASCAL
// compiler did not pack records, so every field occupies four bytes except
// characters and booleans, which take one (§3.3.2).  The record layouts
// follow Fig 2-7 and the Table 3-3 description.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"scaldtv/internal/expand"
	"scaldtv/internal/netlist"
	"scaldtv/internal/values"
	"scaldtv/internal/verify"
)

// Storage is the Table 3-3 breakdown, in bytes.
type Storage struct {
	CircuitDescription int // primitive records with parameter bindings
	SignalValues       int // VALUE BASE + VALUE records (Fig 2-7)
	SignalNames        int // per-bit value pointers, definer/user records
	StringSpace        int // text of signal and primitive names
	CallList           int // primitives to reevaluate per signal bit
	Misc               int // minor structures

	ValueLists   int // number of per-bit value lists (paper: 33,152)
	ValueRecords int // total VALUE records
}

// Total sums the categories.
func (s Storage) Total() int {
	return s.CircuitDescription + s.SignalValues + s.SignalNames +
		s.StringSpace + s.CallList + s.Misc
}

// AvgValueRecords is the mean VALUE-record count per signal (paper: 2.97).
func (s Storage) AvgValueRecords() float64 {
	if s.ValueLists == 0 {
		return 0
	}
	return float64(s.ValueRecords) / float64(s.ValueLists)
}

// BytesPerSignal is the mean storage per signal value list (paper: ~56 B).
func (s Storage) BytesPerSignal() float64 {
	if s.ValueLists == 0 {
		return 0
	}
	return float64(s.SignalValues) / float64(s.ValueLists)
}

const (
	field = 4 // unpacked PASCAL field

	valueBaseBytes   = 4 * field // free link, skew, eval string ptr, value ptr (Fig 2-7)
	valueRecordBytes = 3 * field // value, width, link
	primHeaderBytes  = 17 * field
	connBytes        = 2 * field // net index + rail/directive flags
	portBytes        = 1 * field
	netNameBytes     = 4 * field // value ptr, definer, user-list head, name ptr
	callEntryBytes   = 1 * field
	miscFixedBytes   = 16 * 1024
)

// Measure computes the storage model for a design and (optionally) the
// relaxed waveforms of a verified case; without waveforms the initial
// two-segment estimate of the paper's average is used.
func Measure(d *netlist.Design, waves []values.Waveform) Storage {
	var s Storage
	for i := range d.Prims {
		p := &d.Prims[i]
		s.CircuitDescription += primHeaderBytes
		for _, port := range p.In {
			s.CircuitDescription += portBytes + connBytes*len(port.Bits)
		}
		for _, port := range p.Out {
			s.CircuitDescription += portBytes + field*len(port.Bits)
		}
		s.StringSpace += align4(len(p.Name) + 1)
	}
	s.ValueLists = len(d.Nets)
	for i := range d.Nets {
		n := &d.Nets[i]
		segs := 3 // the paper's observed average order
		if waves != nil {
			segs = len(waves[i].Segs)
		}
		s.ValueRecords += segs
		s.SignalValues += valueBaseBytes + valueRecordBytes*segs
		s.SignalNames += netNameBytes
		s.StringSpace += align4(len(n.Name) + 1)
		s.CallList += callEntryBytes * (len(n.Fanout) + 1)
	}
	s.Misc = miscFixedBytes + field*8*len(d.Cases)
	return s
}

func align4(n int) int { return (n + 3) &^ 3 }

// String renders the Table 3-3 style breakdown with percentages.
func (s Storage) String() string {
	total := s.Total()
	pct := func(n int) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	var sb strings.Builder
	sb.WriteString("STORAGE REQUIRED FOR DATA STRUCTURES (Table 3-3 model)\n\n")
	rows := []struct {
		name  string
		bytes int
	}{
		{"CIRCUIT DESCRIPTION", s.CircuitDescription},
		{"SIGNAL VALUES", s.SignalValues},
		{"SIGNAL NAMES", s.SignalNames},
		{"STRING SPACE", s.StringSpace},
		{"CALL LIST ARRAY", s.CallList},
		{"MISCELLANEOUS", s.Misc},
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-22s %10d bytes  %5.1f%%\n", r.name, r.bytes, pct(r.bytes))
	}
	fmt.Fprintf(&sb, "  %-22s %10d bytes\n", "TOTAL", total)
	fmt.Fprintf(&sb, "\n  value lists stored     %d\n", s.ValueLists)
	fmt.Fprintf(&sb, "  avg value records      %.2f\n", s.AvgValueRecords())
	fmt.Fprintf(&sb, "  bytes per signal       %.1f\n", s.BytesPerSignal())
	return sb.String()
}

// Table31 is the execution-statistics breakdown.  The macro-expander rows
// mirror the paper's (read / pass 1 / pass 2); the verifier rows are the
// run's own verify.Stats.
type Table31 struct {
	verify.Stats

	Read  time.Duration // reading input and building parse structures
	Pass1 time.Duration // macro table + synonym resolution
	Pass2 time.Duration // full expansion

	XRef    time.Duration // cross-reference generation
	Listing time.Duration // listing generation, rendered with the checks (Stats.CheckTime)
}

// HitRate is the fraction of cache lookups served from the cache, shared
// by the Table 3-1 listing and the scaldtvd /metrics exposition.
func HitRate(hits, misses int) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// CacheHitRate is the fraction of scheduled primitive evaluations served
// from the memo cache.
func (t Table31) CacheHitRate() float64 {
	return HitRate(t.CacheHits, t.CacheMisses)
}

// PerPrim is the verification cost per primitive (the paper reports
// 49 ms/primitive on the S-1 Mark I).
func (t Table31) PerPrim() time.Duration {
	if t.Primitives == 0 {
		return 0
	}
	return t.VerifyTime / time.Duration(t.Primitives)
}

// PerEvent is the cost per event (the paper reports 20 ms/event).
func (t Table31) PerEvent() time.Duration {
	if t.Events == 0 {
		return 0
	}
	return t.VerifyTime / time.Duration(t.Events)
}

// String renders the table.
func (t Table31) String() string {
	var sb strings.Builder
	sb.WriteString("EXECUTION STATISTICS (Table 3-1 model)\n\n")
	sb.WriteString("  MACRO EXPANSION\n")
	fmt.Fprintf(&sb, "    reading input files            %12v\n", t.Read)
	fmt.Fprintf(&sb, "    pass 1 (macros, synonyms)      %12v\n", t.Pass1)
	fmt.Fprintf(&sb, "    pass 2 (full expansion)        %12v\n", t.Pass2)
	fmt.Fprintf(&sb, "    total                          %12v\n", t.Read+t.Pass1+t.Pass2)
	sb.WriteString("  TIMING VERIFIER\n")
	summary := t.CheckTime + t.Listing
	fmt.Fprintf(&sb, "    building data structures       %12v\n", t.BuildTime)
	fmt.Fprintf(&sb, "    cross reference listings       %12v\n", t.XRef)
	fmt.Fprintf(&sb, "    verifying circuit              %12v\n", t.VerifyTime)
	fmt.Fprintf(&sb, "    checks and summary listing     %12v\n", summary)
	fmt.Fprintf(&sb, "    total                          %12v\n", t.BuildTime+t.XRef+t.VerifyTime+summary)
	sb.WriteString("  EVALUATION CACHE\n")
	if t.CacheHits+t.CacheMisses == 0 {
		sb.WriteString("    off\n")
	} else {
		fmt.Fprintf(&sb, "    hits / misses                  %d / %d (%.1f%% hit rate)\n",
			t.CacheHits, t.CacheMisses, 100*t.CacheHitRate())
		fmt.Fprintf(&sb, "    interned waveforms             %d distinct, %d stores deduplicated\n",
			t.Interned, t.Deduped)
	}
	if t.SCCs > 0 {
		sb.WriteString("  WAVEFRONT SCHEDULER\n")
		fmt.Fprintf(&sb, "    topological levels             %d\n", t.Levels)
		fmt.Fprintf(&sb, "    components                     %d (%d feedback)\n", t.SCCs, t.FeedbackSCCs)
		fmt.Fprintf(&sb, "    relaxation sweeps              %d\n", t.Sweeps)
	}
	if t.Incremental {
		sb.WriteString("  INCREMENTAL REVERIFY\n")
		fmt.Fprintf(&sb, "    dirty instances                %d\n", t.DirtyPrims)
		fmt.Fprintf(&sb, "    dirty signals                  %d\n", t.DirtyNets)
		fmt.Fprintf(&sb, "    reused waveforms               %d\n", t.ReusedWaves)
		fmt.Fprintf(&sb, "    reverify wall time             %12v\n", t.ReverifyTime)
	}
	if t.ExploreCandidates > 0 {
		sb.WriteString("  CASE EXPLORATION\n")
		fmt.Fprintf(&sb, "    candidate signals ranked       %d\n", t.ExploreCandidates)
		fmt.Fprintf(&sb, "    incremental split probes       %d\n", t.ExploreProbes)
		fmt.Fprintf(&sb, "    exploration wall time          %12v\n", t.ExploreTime)
	}
	fmt.Fprintf(&sb, "\n  %d primitives, %d events, %d case(s)\n", t.Primitives, t.Events, t.Cases)
	fmt.Fprintf(&sb, "  per primitive %v, per event %v\n", t.PerPrim(), t.PerEvent())
	return sb.String()
}

// Table32 renders the primitive census in the paper's Table 3-2 format.
func Table32(rep *expand.Report, chips int) string {
	var sb strings.Builder
	sb.WriteString("PRIMITIVE DEFINITIONS GENERATED (Table 3-2 model)\n\n")
	type row struct {
		kind netlist.Kind
		n    int
		bits int
	}
	var rows []row
	for k, n := range rep.Census {
		rows = append(rows, row{k, n, rep.CensusBits[k]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].kind < rows[j].kind
	})
	fmt.Fprintf(&sb, "  %-26s %8s %10s %8s\n", "TYPE", "COUNT", "BITS", "AVG W")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-26s %8d %10d %8.1f\n", r.kind, r.n, r.bits, float64(r.bits)/float64(r.n))
	}
	fmt.Fprintf(&sb, "\n  primitive types used        %d\n", len(rows))
	fmt.Fprintf(&sb, "  vectored primitives         %d\n", rep.Primitives)
	fmt.Fprintf(&sb, "  without vectorisation       %d\n", rep.ScalarBits)
	fmt.Fprintf(&sb, "  average width               %.1f bits\n", rep.AvgWidth())
	if chips > 0 {
		fmt.Fprintf(&sb, "  primitives per chip         %.2f (%d chips)\n",
			float64(rep.Primitives)/float64(chips), chips)
	}
	fmt.Fprintf(&sb, "  synonyms resolved (pass 1)  %d\n", rep.Synonyms)
	return sb.String()
}
