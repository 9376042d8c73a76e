// Package cluster splits the verification engine into a coordinator and
// engine workers connected over HTTP/ndjson, so one run's case analysis
// — and many small runs at once — fan out across N processes while the
// report stays byte-identical to a local single-process run.
//
// The wire protocol is one endpoint, POST /v1/batch: the request body is
// newline-delimited JSON, one SubJob per line, and the response is
// newline-delimited JSON, one SubResult per line in request order.  A
// SubJob names a case-analysis partition of a verification — the full
// HDL source, the half-open declared-case range to evaluate, and the
// report-relevant options — keyed by the same content fingerprints the
// persistent store uses, so a worker that has seen the design before
// answers from its in-memory design cache (no re-parse, no
// re-elaboration, warm tape memo tables) or, for whole-run jobs, from
// its persistent store without running the engine at all.
//
// Batching is the unit of efficiency: a coordinator ships every sub-job
// queued for a worker in ONE round trip (many small designs per RPC),
// and the worker streams results back in order.  Determinism is the
// unit of correctness: partitions merge positionally in declared case
// order (report.MergeParts), so the distributed report is bit-identical
// to `scaldtv -json` no matter how many workers ran it, which worker ran
// which partition, or how many died and were failed over mid-run.
package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"scaldtv/internal/report"
	"scaldtv/internal/serr"
	"scaldtv/internal/tick"
	"scaldtv/internal/verify"
)

// JobOptions is the report-relevant option set a sub-job travels with:
// exactly the fields verify.Fingerprint mixes (pass cap, delay model,
// explore) plus the worker count, which tunes the worker without
// affecting report bytes.  Force waveforms are deliberately absent — the
// service layer never populates them, and the coordinator runs forced
// verifications locally.  Older coordinators may still send intra,
// no_cache and no_tape; the decoder ignores them like any unknown field.
type JobOptions struct {
	Workers   int  `json:"workers,omitempty"`
	MaxPasses int  `json:"max_passes,omitempty"`
	Explore   bool `json:"explore,omitempty"`

	// The delay model, decomposed: Delays is the model's canonical name
	// ("" = worst case), DelayGrid the statistical quadrature step, and
	// DelayParams the analytic parameter overrides.
	Delays      string             `json:"delays,omitempty"`
	DelayGrid   int64              `json:"delay_grid,omitempty"`
	DelayParams map[string]float64 `json:"delay_params,omitempty"`
}

// WireOptions projects an engine option set onto its wire form.
func WireOptions(opts verify.Options) JobOptions {
	o := JobOptions{
		Workers:   opts.Workers,
		MaxPasses: opts.MaxPasses,
		Explore:   opts.Explore,
	}
	switch m := opts.Delays.(type) {
	case verify.StatisticalDelays:
		o.Delays = m.Name()
		o.DelayGrid = int64(m.Grid)
	case verify.AnalyticDelays:
		o.Delays = m.Name()
		o.DelayParams = m.Params
	}
	return o
}

// Options reconstructs the engine option set on the worker side.
func (o JobOptions) Options() verify.Options {
	opts := verify.Options{
		Workers:   o.Workers,
		MaxPasses: o.MaxPasses,
		Explore:   o.Explore,
	}
	switch o.Delays {
	case "statistical":
		opts.Delays = verify.StatisticalDelays{Grid: tick.Time(o.DelayGrid)}
	case "analytic":
		opts.Delays = verify.AnalyticDelays{Params: o.DelayParams}
	}
	return opts
}

// SubJob is one unit of batched work: a case-analysis partition of a
// verification run.  CaseLo/CaseHi is the half-open range into the
// design's declared case list; the zero range (0,0) means the whole run
// — every declared case, or the single unmapped cycle of a design with
// none — which is also the only form eligible for the worker's
// persistent-store fast path.
type SubJob struct {
	ID     string     `json:"id"`
	Source string     `json:"source"`
	CaseLo int        `json:"case_lo,omitempty"`
	CaseHi int        `json:"case_hi,omitempty"`
	Opts   JobOptions `json:"opts"`
}

// WholeRun reports whether the job covers the entire case list.
func (j *SubJob) WholeRun() bool { return j.CaseLo == 0 && j.CaseHi == 0 }

// WireError carries a structured engine error across the RPC boundary.
type WireError struct {
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
}

// Err reconstructs the structured error.
func (e *WireError) Err() error {
	return &serr.Error{Kind: serr.ParseKind(e.Kind), Msg: e.Msg}
}

// wireErr projects an error onto the wire.
func wireErr(err error) *WireError {
	return &WireError{Kind: serr.KindOf(err).String(), Msg: err.Error()}
}

// SubResult answers one SubJob: either a mergeable report part or a
// structured error.  Provenance reports how the worker obtained the
// part (cached = served from its persistent store, cold = engine run),
// for metrics and tests; it never affects the part's bytes.
type SubResult struct {
	ID         string         `json:"id"`
	Err        *WireError     `json:"err,omitempty"`
	Provenance string         `json:"provenance,omitempty"`
	Part       *report.Report `json:"part,omitempty"`
}

// encodeBatch writes jobs as ndjson.
func encodeBatch(w io.Writer, jobs []*SubJob) error {
	enc := json.NewEncoder(w)
	for _, j := range jobs {
		if err := enc.Encode(j); err != nil {
			return err
		}
	}
	return nil
}

// decodeResults reads the ndjson response of a batch, expecting exactly
// want results in request order.
func decodeResults(r io.Reader, want int) ([]*SubResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	results := make([]*SubResult, 0, want)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		sr := &SubResult{}
		if err := json.Unmarshal(line, sr); err != nil {
			return nil, fmt.Errorf("cluster: malformed result line: %w", err)
		}
		results = append(results, sr)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: reading batch response: %w", err)
	}
	if len(results) != want {
		return nil, fmt.Errorf("cluster: batch answered %d of %d sub-jobs", len(results), want)
	}
	return results, nil
}

// maxLine bounds one ndjson line (a source text or a rendered report
// part) on both sides of the wire.
const maxLine = 64 << 20
