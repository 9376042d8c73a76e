package report

import (
	"encoding/json"

	"scaldtv/internal/verify"
)

// jsonViolation is the machine-readable form of one violation.
type jsonViolation struct {
	Kind       string  `json:"kind"`
	Case       string  `json:"case,omitempty"`
	Primitive  string  `json:"primitive"`
	Data       string  `json:"data,omitempty"`
	Clock      string  `json:"clock,omitempty"`
	RequiredNS float64 `json:"required_ns"`
	ActualNS   float64 `json:"actual_ns"`
	MarginNS   float64 `json:"margin_ns"`
	AtNS       float64 `json:"at_ns"`
	DataWave   string  `json:"data_wave,omitempty"`
	ClockWave  string  `json:"clock_wave,omitempty"`
	Detail     string  `json:"detail,omitempty"`
}

// jsonSiteProb is one constraint site's statistical-mode violation
// probability.
type jsonSiteProb struct {
	Kind        string  `json:"kind"`
	Case        string  `json:"case,omitempty"`
	Primitive   string  `json:"primitive"`
	Data        string  `json:"data,omitempty"`
	Clock       string  `json:"clock,omitempty"`
	SlackNS     float64 `json:"slack_ns"`
	From        string  `json:"from,omitempty"`
	Probability float64 `json:"probability"`
}

// jsonParamBinding is one design parameter of an analytic-mode run: its
// declared box and the value the engine was pinned at.
type jsonParamBinding struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

// jsonSurfaceSite is one constraint site of the analytic margin surface:
// the slack at the pinned point, and the worst slack over the whole
// parameter box together with the binding corner that attains it.
type jsonSurfaceSite struct {
	Kind         string             `json:"kind"`
	Case         string             `json:"case,omitempty"`
	Primitive    string             `json:"primitive"`
	Data         string             `json:"data,omitempty"`
	Clock        string             `json:"clock,omitempty"`
	SlackNS      float64            `json:"slack_ns"`
	Exact        bool               `json:"exact"`
	WorstSlackNS float64            `json:"worst_slack_ns"`
	Corner       map[string]float64 `json:"corner,omitempty"`
}

// jsonExploration is the case-exploration section: the poisoned sites,
// the full candidate provenance, and the emitted minimal case set.  All
// fields are structural or derived from deterministic probe outcomes, so
// the section is byte-identical across engines and worker counts.
type jsonExploration struct {
	Sites      []jsonExploredSite     `json:"sites"`
	Candidates []jsonExploreCandidate `json:"candidates"`
	Chosen     []string               `json:"chosen"`
	CaseSet    []string               `json:"case_set"`
	Minimal    bool                   `json:"minimal"`
	Residual   int                    `json:"residual"`
	Skipped    int                    `json:"skipped,omitempty"`
}

type jsonExploredSite struct {
	Kind       string   `json:"kind"`
	Primitive  string   `json:"primitive"`
	Data       string   `json:"data,omitempty"`
	Clock      string   `json:"clock,omitempty"`
	Discharged bool     `json:"discharged"`
	By         []string `json:"by,omitempty"`
}

type jsonExploreCandidate struct {
	Base       string `json:"base"`
	Sites      int    `json:"sites"`
	ConePrims  int    `json:"cone_prims"`
	ConeNets   int    `json:"cone_nets"`
	Probes     int    `json:"probes,omitempty"`
	Discharges []int  `json:"discharges,omitempty"`
	Chosen     bool   `json:"chosen,omitempty"`
}

// SchemaVersion identifies the JSON report layout.  Bump it on any
// incompatible change to the emitted fields; consumers should check it
// before interpreting the rest of the document.
//
// Version 1 added the schema and case_labels fields and removed the
// events counter: per-case event totals depend on the case schedule
// (sequential runs relax later cases incrementally, concurrent runs relax
// each from scratch), so including them broke the byte-determinism of the
// report across Options.Workers settings.  Everything emitted now is
// bit-identical for every Workers setting — the contract the scaldtvd
// service relies on.
//
// Version 1 later gained the optional delay_model, site_probs and
// exploration fields, then the analytic-mode params and margin_surface
// sections — all additive and omitted when absent, so consumers of the
// original layout keep working and the version stays 1.
const SchemaVersion = 1

// Report is the machine-readable verification outcome, for CI
// integration.  The design name and per-case labels identify what was
// verified; the labels are in declared case order, matching the case
// grouping of the violations list.
//
// A Report is also the wire form of a *partial* verification — a
// case-subset run on a cluster worker (see NewPartial): the same
// structure then describes only the cases the worker ran, and
// MergeParts reassembles the full document from the partition's parts
// in declared case order, byte-identical to a local single-process run.
type Report struct {
	Schema     int             `json:"schema"`
	Design     string          `json:"design"`
	PeriodNS   float64         `json:"period_ns"`
	Primitives int             `json:"primitives"`
	Nets       int             `json:"nets"`
	Cases      int             `json:"cases"`
	CaseLabels []string        `json:"case_labels"`
	Violations []jsonViolation `json:"violations"`
	Undefined  []string        `json:"undefined_signals,omitempty"`
	Pass       bool            `json:"pass"`

	// Optional sections, additive within schema 1.
	DelayModel  string             `json:"delay_model,omitempty"`
	SiteProbs   []jsonSiteProb     `json:"site_probs,omitempty"`
	Params      []jsonParamBinding `json:"params,omitempty"`
	Surface     []jsonSurfaceSite  `json:"margin_surface,omitempty"`
	Exploration *jsonExploration   `json:"exploration,omitempty"`
}

// NewPartial renders a verification result into the Report structure
// without marshalling it.  For a full run the outcome is exactly what
// JSON serializes; for a case-subset run (a design narrowed with
// netlist.Design.WithCases on a cluster worker) it is one mergeable part:
// the head fields describe the whole design, the case labels, violations
// and site probabilities cover only the cases this run evaluated.
func NewPartial(res *verify.Result) *Report {
	out := &Report{
		Schema:     SchemaVersion,
		Design:     res.Design.Name,
		PeriodNS:   res.Design.Period.NS(),
		Primitives: res.Stats.Primitives,
		Nets:       res.Stats.Nets,
		Cases:      res.Stats.Cases,
		CaseLabels: []string{},
		Undefined:  res.Undefined,
		Pass:       !res.Errors(),
		Violations: []jsonViolation{},
	}
	for _, c := range res.Cases {
		out.CaseLabels = append(out.CaseLabels, c.Label)
	}
	for _, v := range res.Violations {
		jv := jsonViolation{
			Kind:       v.Kind.String(),
			Case:       v.Case,
			Primitive:  v.Prim,
			Data:       v.Data,
			Clock:      v.Clock,
			RequiredNS: v.Required.NS(),
			ActualNS:   v.Actual.NS(),
			MarginNS:   v.Margin().NS(),
			AtNS:       v.At.NS(),
			Detail:     v.Detail,
		}
		if v.DataWave.Period > 0 {
			jv.DataWave = WaveString(v.DataWave)
		}
		if v.ClockWave.Period > 0 {
			jv.ClockWave = WaveString(v.ClockWave)
		}
		out.Violations = append(out.Violations, jv)
	}
	if len(res.SiteProbs) > 0 {
		out.DelayModel = verify.DelayStatistical.Name()
		for _, p := range res.SiteProbs {
			out.SiteProbs = append(out.SiteProbs, jsonSiteProb{
				Kind:        p.Kind.String(),
				Case:        p.Case,
				Primitive:   p.Prim,
				Data:        p.Data,
				Clock:       p.Clock,
				SlackNS:     p.SlackNS,
				From:        p.From,
				Probability: p.Prob,
			})
		}
	}
	if ms := res.MarginSurface; ms != nil {
		out.DelayModel = "analytic"
		out.Params = []jsonParamBinding{}
		for _, p := range ms.Params {
			out.Params = append(out.Params, jsonParamBinding{
				Name: p.Name, Value: p.Value, Lo: p.Lo, Hi: p.Hi,
			})
		}
		out.Surface = []jsonSurfaceSite{}
		for i := range ms.Sites {
			s := &ms.Sites[i]
			corner, worst := ms.BindingCorner(i)
			js := jsonSurfaceSite{
				Kind:         s.Kind.String(),
				Case:         s.Case,
				Primitive:    s.Prim,
				Data:         s.Data,
				Clock:        s.Clock,
				SlackNS:      s.Slack0.NS(),
				Exact:        s.Exact,
				WorstSlackNS: worst.NS(),
			}
			if len(corner) > 0 {
				js.Corner = corner
			}
			out.Surface = append(out.Surface, js)
		}
	}
	if ex := res.Exploration; ex != nil {
		jx := &jsonExploration{
			Sites:      []jsonExploredSite{},
			Candidates: []jsonExploreCandidate{},
			Chosen:     ex.Chosen,
			CaseSet:    ex.CaseSet,
			Minimal:    ex.Minimal,
			Residual:   ex.Residual,
			Skipped:    ex.Skipped,
		}
		if jx.Chosen == nil {
			jx.Chosen = []string{}
		}
		if jx.CaseSet == nil {
			jx.CaseSet = []string{}
		}
		for _, s := range ex.Sites {
			jx.Sites = append(jx.Sites, jsonExploredSite{
				Kind:       s.Kind.String(),
				Primitive:  s.Prim,
				Data:       s.Data,
				Clock:      s.Clock,
				Discharged: s.Discharged,
				By:         s.By,
			})
		}
		for _, c := range ex.Candidates {
			jx.Candidates = append(jx.Candidates, jsonExploreCandidate{
				Base:       c.Base,
				Sites:      c.Sites,
				ConePrims:  c.ConePrims,
				ConeNets:   c.ConeNets,
				Probes:     c.Probes,
				Discharges: c.Discharges,
				Chosen:     c.Chosen,
			})
		}
		out.Exploration = jx
	}
	return out
}

// JSON renders the verification result as machine-readable JSON.  The
// output is byte-deterministic for a given design and verification
// outcome, regardless of worker counts or cache settings.
func JSON(res *verify.Result) ([]byte, error) {
	return marshalReport(NewPartial(res))
}

func marshalReport(out *Report) ([]byte, error) {
	return json.MarshalIndent(out, "", "  ")
}
