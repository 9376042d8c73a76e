package stats

import (
	"strings"
	"testing"
	"time"

	"scaldtv/internal/gen"
	"scaldtv/internal/verify"
)

func TestStorageModel(t *testing.T) {
	d, _, err := gen.Generate(gen.Config{Chips: 2 * gen.ChipsPerStage()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.Run(d, verify.Options{KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	s := Measure(d, res.Cases[0].Waves)
	if s.Total() <= 0 {
		t.Fatal("zero storage")
	}
	if s.ValueLists != len(d.Nets) {
		t.Errorf("value lists = %d, want %d", s.ValueLists, len(d.Nets))
	}
	// Table 3-3 shape: the circuit description is the largest share
	// (paper: 37.8%), and every category is populated.
	if s.CircuitDescription <= s.SignalNames || s.CircuitDescription <= s.CallList {
		t.Errorf("circuit description should dominate: %+v", s)
	}
	for name, v := range map[string]int{
		"values": s.SignalValues, "names": s.SignalNames,
		"strings": s.StringSpace, "calllist": s.CallList, "misc": s.Misc,
	} {
		if v <= 0 {
			t.Errorf("category %s empty", name)
		}
	}
	// The paper's averages: ~3 value records and tens of bytes per signal.
	if avg := s.AvgValueRecords(); avg < 1 || avg > 10 {
		t.Errorf("avg value records = %.2f, implausible", avg)
	}
	if b := s.BytesPerSignal(); b < 20 || b > 200 {
		t.Errorf("bytes per signal = %.1f, implausible", b)
	}
	out := s.String()
	for _, want := range []string{"CIRCUIT DESCRIPTION", "SIGNAL VALUES", "CALL LIST", "TOTAL", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestStorageWithoutWaves(t *testing.T) {
	d, _, err := gen.Generate(gen.Config{Chips: gen.ChipsPerStage()})
	if err != nil {
		t.Fatal(err)
	}
	s := Measure(d, nil)
	if s.AvgValueRecords() != 3 {
		t.Errorf("estimate without waves = %.2f, want 3", s.AvgValueRecords())
	}
}

func TestTable31(t *testing.T) {
	d, _, err := gen.Generate(gen.Config{Chips: gen.ChipsPerStage()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.Run(d, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var t31 Table31
	t31.Read = 5 * time.Millisecond
	t31.Pass1 = time.Millisecond
	t31.Pass2 = 7 * time.Millisecond
	t31.FromVerify(res.Stats)
	if t31.Primitives != res.Stats.Primitives || t31.Events != res.Stats.Events {
		t.Errorf("FromVerify lost counters: %+v", t31)
	}
	if t31.PerEvent() <= 0 || t31.PerPrim() <= 0 {
		t.Errorf("per-unit costs should be positive: %v %v", t31.PerEvent(), t31.PerPrim())
	}
	out := t31.String()
	for _, want := range []string{"MACRO EXPANSION", "TIMING VERIFIER", "pass 2", "per event"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	var zero Table31
	if zero.PerPrim() != 0 || zero.PerEvent() != 0 {
		t.Error("zero table should not divide by zero")
	}
}

func TestTable31CacheCounters(t *testing.T) {
	d, _, err := gen.Generate(gen.Config{Chips: 2 * gen.ChipsPerStage()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.Run(d, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var t31 Table31
	t31.FromVerify(res.Stats)
	if t31.CacheMisses == 0 || t31.Interned == 0 {
		t.Fatalf("default run should populate cache counters: %+v", t31)
	}
	if t31.CacheHits != res.Stats.CacheHits || t31.Deduped != res.Stats.Deduped {
		t.Errorf("FromVerify lost cache counters: %+v vs %+v", t31, res.Stats)
	}
	if r := t31.CacheHitRate(); r < 0 || r > 1 {
		t.Errorf("hit rate = %f, out of range", r)
	}
	out := t31.String()
	for _, want := range []string{"EVALUATION CACHE", "hit rate", "interned waveforms",
		"WAVEFRONT SCHEDULER", "topological levels", "relaxation sweeps"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "intra-case workers") {
		t.Errorf("rendering still lists intra-case workers:\n%s", out)
	}

	// The memo-free Reference engine renders the cache as off, with a
	// zero rate, and has no levelization to report.
	off, err := verify.Reference(d, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var t31off Table31
	t31off.FromVerify(off.Stats)
	if t31off.CacheHits != 0 || t31off.CacheMisses != 0 || t31off.Interned != 0 {
		t.Errorf("Reference run reported cache activity: %+v", t31off)
	}
	if t31off.CacheHitRate() != 0 {
		t.Error("Reference hit rate should be 0")
	}
	out = t31off.String()
	if !strings.Contains(out, "off") {
		t.Errorf("Reference rendering should say off:\n%s", out)
	}
	if strings.Contains(out, "WAVEFRONT SCHEDULER") {
		t.Errorf("Reference rendering lists a wavefront schedule:\n%s", out)
	}
}

func TestTable32(t *testing.T) {
	_, rep, err := gen.Generate(gen.Config{Chips: 2 * gen.ChipsPerStage()})
	if err != nil {
		t.Fatal(err)
	}
	out := Table32(rep, 2*gen.ChipsPerStage())
	for _, want := range []string{"TYPE", "COUNT", "vectored primitives", "primitives per chip", "synonyms"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}
