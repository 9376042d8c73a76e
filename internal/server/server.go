// Package server implements scaldtvd, the verification service: an
// HTTP/JSON front-end over the scaldtv engine that holds compiled designs
// in memory and answers edit/re-verify requests, the paper's §2.6 modular
// re-verification loop turned into a long-running daemon.
//
// Endpoints:
//
//	POST   /v1/verify                  stateless: HDL source in, JSON report out
//	                                   (?delays= selects the delay model,
//	                                   repeatable ?param=name=value — or the
//	                                   JSON body's params field — binds design
//	                                   parameters, and the body's corners field
//	                                   queries the margin surface at extra
//	                                   parameter points from the one run)
//	POST   /v1/explore                 stateless automatic case exploration:
//	                                   the report carries the minimal case set
//	                                   discharging U/C-poisoned sites
//	                                   (?delays=statistical adds probabilities)
//	POST   /v1/sessions                compile + verify, retain a Verifier
//	PUT    /v1/sessions/{id}/design    diff against the retained design and
//	                                   re-verify the dirty cone only
//	GET    /v1/sessions/{id}/report    render the retained result
//	                                   (?format=json|errors|summary|xref)
//	DELETE /v1/sessions/{id}           evict a session
//	GET    /healthz                    liveness (503 while draining)
//	GET    /metrics                    Prometheus text-format counters
//
// The stateless verify response is byte-identical to `scaldtv -json` for
// the same source and options — the engine's report determinism contract
// carried over the wire.  Every endpoint verifies through store.Verify or
// store.Update (a nil Config.Store is a store that holds nothing), so
// with a store every request but an exploration is answered from it or
// saves its report to it, under any delay model.  The store keeps
// reports, not fixed points: a stateless request it holds runs no
// engine, while a session create or a corner query always runs, and
// its provenance says whether the store already held the report.
//
// Admission control: verification work runs on a bounded pool of Pool
// slots.  Each tenant (the X-Scaldtv-Tenant header) may have Queue
// requests waiting for a slot, granted round-robin across tenants;
// beyond that the tenant is answered 429 with Retry-After instead of
// blocking unboundedly.  Every request carries a deadline, and client
// disconnects cancel the verify cooperatively (kind canceled → 408).
// During a drain (SIGTERM) new work is refused with 503 while in-flight
// verifies complete.
//
// Error mapping: structured scaldtv error kinds map onto HTTP statuses —
// parse → 400, elaborate/assertion → 422, canceled → 408, limit → 503.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"context"

	"scaldtv"
	"scaldtv/internal/cluster"
	"scaldtv/internal/serr"
	"scaldtv/internal/store"
	"scaldtv/internal/verify"
)

// Config tunes the service.  The zero value gets sensible defaults from
// New.
type Config struct {
	// Options is the base verification configuration; stateless requests
	// may override the worker count per request, sessions fix it at
	// creation.
	Options scaldtv.Options
	// Pool bounds the number of concurrently running verifications.  The
	// default sizes the pool against the per-run parallelism, so that
	// Pool × Workers ≈ GOMAXPROCS: a server already fanning each run out
	// over every core admits one run at a time.
	Pool int
	// Queue bounds how many requests each tenant (the X-Scaldtv-Tenant
	// header; empty means the shared "default" tenant) may have waiting
	// for a pool slot; beyond it that tenant's requests are answered 429.
	// Waiters are granted round-robin across tenants, so one tenant's
	// burst cannot starve another's queue.  Default 16.
	Queue int
	// MaxSessions bounds the session table; the least recently used
	// session is evicted beyond it.  Default 64.
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this.  Default 30m.
	SessionTTL time.Duration
	// Timeout is the per-request verification deadline.  Default 60s.
	Timeout time.Duration
	// MaxBody bounds the request body size in bytes.  Default 8 MiB.
	MaxBody int64
	// Store, when non-nil, is the persistent content-addressed
	// verification cache: stateless verifies of already-seen designs are
	// answered from it without taking an admission slot, and every
	// converged run's report is saved to it — under any delay model, for
	// every request but an exploration.  Response bodies are
	// byte-identical with or without it; provenance travels out of band
	// in the X-Scaldtv-Provenance header and the session envelope.
	Store *store.Store
	// Cluster, when non-nil, turns this server into a coordinator:
	// verifications fan out across the cluster's engine workers (report
	// bytes stay identical to a local run) and session requests proxy to
	// the worker owning the session.  Admission control still applies —
	// the pool then bounds concurrent *distributed* runs.
	Cluster *cluster.Coordinator

	// now substitutes the clock (session TTL tests).
	now func() time.Time
	// onVerifyStart, when set, runs inside the admitted pool slot just
	// before verification begins (admission and cancellation tests).
	onVerifyStart func(ctx context.Context)
}

// Server is the verification service.  Create one with New, mount
// Handler on an http.Server, and call SetDraining(true) before Shutdown.
type Server struct {
	cfg      Config
	fq       *fairQueue
	draining atomic.Bool
	sessions *sessionTable
	met      metrics
	mux      *http.ServeMux
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	perRun := cfg.Options.Workers
	if perRun <= 0 {
		perRun = runtime.GOMAXPROCS(0)
	}
	if cfg.Pool <= 0 {
		cfg.Pool = runtime.GOMAXPROCS(0) / perRun
		if cfg.Pool < 1 {
			cfg.Pool = 1
		}
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 30 * time.Minute
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Server{
		cfg:      cfg,
		fq:       newFairQueue(cfg.Pool, cfg.Queue, maxTenants),
		sessions: newSessionTable(cfg.MaxSessions, cfg.SessionTTL, cfg.now),
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/verify", s.handleVerify)
	s.mux.HandleFunc("POST /v1/explore", s.handleExplore)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("PUT /v1/sessions/{id}/design", s.handleSessionUpdate)
	s.mux.HandleFunc("GET /v1/sessions/{id}/report", s.handleSessionReport)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetDraining flips drain mode: while draining every new request is
// refused with 503 (and /healthz reports draining), but verifications
// already admitted run to completion.  Call it before http.Server
// Shutdown so load balancers stop routing while in-flight work finishes.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// QueueDepth reports how many admitted requests currently hold or wait
// for a verification slot.
func (s *Server) QueueDepth() int { return s.fq.depth() }

// Admission sentinels, mapped to 429 / 503 by writeErr.
var (
	errOverloaded = errors.New("server: verification queue is full")
	errDraining   = errors.New("server: draining, not accepting new work")
)

// admit reserves a verification slot for the request's tenant, waiting
// in the tenant's bounded queue when the pool is busy.  It never blocks
// unboundedly: a tenant with a full queue fails fast with errOverloaded,
// and a canceled request frees its queue position immediately.  The
// returned release func must be called once.
func (s *Server) admit(ctx context.Context, r *http.Request) (func(), error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	release, err := s.fq.admit(ctx, r.Header.Get(tenantHeader))
	if errors.Is(err, errOverloaded) {
		s.met.rejected.Add(1)
	}
	return release, err
}

// reqCtx attaches the per-request verification deadline to the request's
// own context (which the net/http server cancels on client disconnect).
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.Timeout)
}

// verifyRequest is the JSON request body; the same fields are accepted as
// query parameters (lib, j) over a raw-source body, so
// `curl --data-binary @design.scald '…/v1/verify?lib=1'` works without
// JSON quoting.  The parameters mirror the scaldtv flags of the same
// names.  Older clients' intra and cache fields and parameters are
// ignored, like any unknown field.
type verifyRequest struct {
	Source  string `json:"source"`
	Lib     bool   `json:"lib"`
	Workers *int   `json:"workers"`

	// Delays selects the delay model ("worstcase", "statistical",
	// "analytic"); Params binds design parameters for the analytic model
	// (present Params imply it).  Corners, valid only with the analytic
	// model, asks the margin surface of the one verification run to
	// evaluate the listed parameter points: the response then becomes
	// {"report": <standard report>, "corners": [...]} with one entry per
	// queried point.
	Delays  string               `json:"delays,omitempty"`
	Params  map[string]float64   `json:"params,omitempty"`
	Corners []map[string]float64 `json:"corners,omitempty"`
}

// readRequest decodes a verification request: the HDL source (library
// appended when lib is set), the effective options and any corner
// queries.  The delay model comes from the JSON body (delays, params)
// or the query string (?delays=, repeatable ?param=name=value), query
// winning; parameter bindings imply the analytic model, mirroring the
// scaldtv -param flag.
func (s *Server) readRequest(r *http.Request) (src string, opts scaldtv.Options, corners []map[string]float64, err error) {
	opts = s.cfg.Options
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return "", opts, nil, serr.Newf(serr.Limit, "server: request body over %d bytes", s.cfg.MaxBody)
		}
		return "", opts, nil, serr.Wrap(serr.Canceled, err)
	}
	req := verifyRequest{}
	if strings.Contains(r.Header.Get("Content-Type"), "json") {
		if err := json.Unmarshal(body, &req); err != nil {
			return "", opts, nil, serr.Newf(serr.Parse, "server: request body: %v", err)
		}
	} else {
		req.Source = string(body)
	}
	q := r.URL.Query()
	boolParam := func(name string, cur bool) (bool, error) {
		v := q.Get(name)
		if v == "" {
			return cur, nil
		}
		b, err := strconv.ParseBool(v)
		if err != nil {
			return cur, serr.Newf(serr.Parse, "server: query parameter %s=%q: %v", name, v, err)
		}
		return b, nil
	}
	intParam := func(name string, cur *int) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return serr.Newf(serr.Parse, "server: query parameter %s=%q must be a non-negative integer", name, v)
		}
		*cur = n
		return nil
	}
	if req.Workers != nil {
		opts.Workers = *req.Workers
	}
	if err := intParam("j", &opts.Workers); err != nil {
		return "", opts, nil, err
	}
	lib, err := boolParam("lib", req.Lib)
	if err != nil {
		return "", opts, nil, err
	}
	delays := req.Delays
	if v := q.Get("delays"); v != "" {
		delays = v
	}
	params := map[string]float64{}
	for name, v := range req.Params {
		params[name] = v
	}
	for _, pv := range q["param"] {
		name, val, ok := strings.Cut(pv, "=")
		if !ok || name == "" {
			return "", opts, nil, serr.Newf(serr.Parse, "server: query parameter param=%q: want name=value", pv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return "", opts, nil, serr.Newf(serr.Parse, "server: query parameter param=%q: %v", pv, err)
		}
		params[name] = f
	}
	if delays != "" || len(params) > 0 {
		dm, err := verify.ResolveDelayModel(delays, params)
		switch {
		case errors.Is(err, verify.ErrParamsNeedAnalytic):
			return "", opts, nil, serr.Newf(serr.Parse, "server: parameter bindings require the analytic delay model, not delays=%q", delays)
		case err != nil:
			return "", opts, nil, serr.Newf(serr.Parse, "server: delays=%q: %v", delays, err)
		}
		opts.Delays = dm
	}
	if len(req.Corners) > 0 && !isAnalytic(opts) {
		return "", opts, nil, serr.Newf(serr.Parse, "server: corner queries require the analytic delay model")
	}
	if req.Source == "" {
		return "", opts, nil, serr.Newf(serr.Parse, "server: empty design source")
	}
	src = req.Source
	if lib {
		src += "\n" + scaldtv.Library
	}
	return src, opts, req.Corners, nil
}

// isAnalytic reports whether the effective delay model is the analytic
// one.
func isAnalytic(opts scaldtv.Options) bool {
	_, ok := opts.Delays.(scaldtv.AnalyticDelays)
	return ok
}

// delayProvenance renders the active delay model and its parameter
// bindings for the X-Scaldtv-Provenance header; empty for the worst-case
// default, so the header bytes of pre-existing requests do not change.
func delayProvenance(opts scaldtv.Options) string {
	switch m := opts.Delays.(type) {
	case scaldtv.StatisticalDelays:
		if m.Grid > 0 {
			return fmt.Sprintf("delays=statistical grid=%d", int64(m.Grid))
		}
		return "delays=statistical"
	case scaldtv.AnalyticDelays:
		var sb strings.Builder
		sb.WriteString("delays=analytic")
		names := make([]string, 0, len(m.Params))
		for name := range m.Params {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&sb, " %s=%s", name, strconv.FormatFloat(m.Params[name], 'g', -1, 64))
		}
		return sb.String()
	}
	return ""
}

// joinProvenance combines the store provenance and the delay-model
// description into one X-Scaldtv-Provenance header value.
func joinProvenance(prov, model string) string {
	switch {
	case prov == "":
		return model
	case model == "":
		return prov
	default:
		return prov + "; " + model
	}
}

// handleVerify is the stateless POST /v1/verify endpoint.  The response
// body is byte-identical to `scaldtv -json` for the same input: the JSON
// report followed by one newline.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) { s.serveVerify(w, r, false) }

// handleExplore is the stateless POST /v1/explore endpoint: /v1/verify
// with automatic case exploration, answered with the JSON report
// carrying the exploration section (and, with ?delays=statistical,
// per-site violation probabilities).  The response is byte-identical to
// `scaldtv -explore -json` for the same input.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) { s.serveVerify(w, r, true) }

// serveVerify answers a stateless verification request, exploring when
// explore is set.
func (s *Server) serveVerify(w http.ResponseWriter, r *http.Request, explore bool) {
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	src, opts, corners, err := s.readRequest(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	opts.Explore = explore
	var (
		oc  *store.Outcome
		rep []byte
	)
	if s.cfg.Cluster != nil && len(corners) == 0 {
		// Coordinator mode: the run fans out across the engine workers
		// (the coordinator compiles through its own design cache and the
		// workers answer from theirs, so no local compile happens here)
		// and the merged report is byte-identical to a local run.
		oc, rep = s.verifyAdmitted(ctx, w, r, nil, func(ctx context.Context, _ *scaldtv.Design) (*store.Outcome, error) {
			rep, prov, err := s.cfg.Cluster.Verify(ctx, src, opts)
			return &store.Outcome{Report: rep, Provenance: store.Provenance(prov)}, err
		}, (*store.Outcome).JSON)
	} else {
		// Corner queries are answered from the live Result's margin
		// surface, which stored report bytes cannot give, so they skip
		// both byte probes.  The source-text probe answers an exact repeat
		// before the design is even compiled — parsing and elaborating a
		// large design costs tens of milliseconds, the probe a directory
		// scan and a checksum pass — and the design probe catches a
		// textually different spelling of an already-verified design.
		// Both bypass admission control: a busy pool cannot queue (or
		// reject) a request the engine never needs to see.
		if len(corners) == 0 {
			if rep, ok := s.cfg.Store.ServeReportSource(src, opts); ok {
				s.met.storeHits.Add(1)
				s.writeReport(w, rep, store.Cached, opts)
				return
			}
		}
		d, err := scaldtv.Compile(src)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		if len(corners) == 0 {
			if rep, ok := s.cfg.Store.ServeReport(d, opts); ok {
				s.met.storeHits.Add(1)
				s.writeReport(w, rep, store.Cached, opts)
				return
			}
		}
		// A corner query reads the Result, which only a run gives, so with
		// a store it asks for a retained request, which always runs.
		oc, rep = s.verifyAdmitted(ctx, w, r, nil, func(ctx context.Context, _ *scaldtv.Design) (*store.Outcome, error) {
			return store.Verify(ctx, s.cfg.Store, d, src, opts, len(corners) > 0 && s.cfg.Store != nil)
		}, func(oc *store.Outcome) ([]byte, error) {
			rep, err := oc.JSON()
			if err != nil || len(corners) == 0 {
				return rep, err
			}
			return cornerResponse(oc.Res, rep, corners)
		})
	}
	if oc != nil {
		s.writeReport(w, rep, oc.Provenance, opts)
	}
}

// writeReport writes a stateless verification response: the report and
// one newline, with the store provenance and the delay model in the
// X-Scaldtv-Provenance header.
func (s *Server) writeReport(w http.ResponseWriter, rep []byte, provenance store.Provenance, opts scaldtv.Options) {
	if p := joinProvenance(string(provenance), delayProvenance(opts)); p != "" {
		w.Header().Set("X-Scaldtv-Provenance", p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(rep)
	io.WriteString(w, "\n")
}

// verifyAdmitted is every verification's way through admission control:
// it takes a pool slot for the request's tenant, runs the test hook,
// compiles the design when compile is set (a session compiles inside its
// slot), times run and counts its outcome in the metrics, then renders
// the response body with render, so all of a request's CPU work stays
// inside its slot and only the write happens after release.  It writes
// any error response itself and returns a nil outcome; a compile error
// answers 4xx without counting as a failed run.
func (s *Server) verifyAdmitted(ctx context.Context, w http.ResponseWriter, r *http.Request,
	compile func() (*scaldtv.Design, error), run func(context.Context, *scaldtv.Design) (*store.Outcome, error),
	render func(*store.Outcome) ([]byte, error)) (*store.Outcome, []byte) {
	release, err := s.admit(ctx, r)
	if err != nil {
		s.writeErr(w, err)
		return nil, nil
	}
	defer release()
	if s.cfg.onVerifyStart != nil {
		s.cfg.onVerifyStart(ctx)
	}
	var d *scaldtv.Design
	if compile != nil {
		if d, err = compile(); err != nil {
			s.writeErr(w, err)
			return nil, nil
		}
	}
	start := time.Now()
	oc, err := run(ctx, d)
	if err != nil {
		s.met.failures.Add(1)
		s.writeErr(w, err)
		return nil, nil
	}
	s.met.count(oc, time.Since(start))
	body, err := render(oc)
	if err != nil {
		s.writeErr(w, err)
		return nil, nil
	}
	return oc, body
}

// cornerBody is the response of a corner-querying verification: the
// standard JSON report plus, per queried parameter point, the slack of
// every margin-surface site evaluated there — one engine run answering
// every corner.
type cornerBody struct {
	Report  json.RawMessage `json:"report"`
	Corners []cornerAnswer  `json:"corners"`
}

type cornerAnswer struct {
	Params     map[string]float64 `json:"params"`
	Violations []cornerViolation  `json:"violations,omitempty"`
	Pass       bool               `json:"pass"`
}

type cornerViolation struct {
	Checker string `json:"checker"`
	Data    string `json:"data,omitempty"`
	Case    string `json:"case,omitempty"`
	SlackNS string `json:"slack_ns"`
}

// cornerResponse evaluates the run's margin surface at each queried
// parameter point and wraps the report with the answers.  Points outside
// the declared parameter box (or naming unknown parameters) are request
// errors.
func cornerResponse(res *scaldtv.Result, rep []byte, corners []map[string]float64) ([]byte, error) {
	ms := res.MarginSurface
	if ms == nil {
		return nil, serr.Newf(serr.Elaborate, "server: corner queries require the analytic delay model")
	}
	body := cornerBody{Report: rep, Corners: make([]cornerAnswer, 0, len(corners))}
	for _, c := range corners {
		vio, err := ms.Violations(c)
		if err != nil {
			return nil, serr.Newf(serr.Parse, "server: corner query: %v", err)
		}
		ans := cornerAnswer{Params: c, Pass: len(vio) == 0}
		if ans.Params == nil {
			ans.Params = map[string]float64{}
		}
		for _, v := range vio {
			site := &ms.Sites[v.Site]
			ans.Violations = append(ans.Violations, cornerViolation{
				Checker: site.Prim,
				Data:    site.Data,
				Case:    site.Case,
				SlackNS: v.Slack.String(),
			})
		}
		body.Corners = append(body.Corners, ans)
	}
	return json.MarshalIndent(&body, "", "  ")
}

// errBody is the JSON error response.
type errBody struct {
	Error struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
		Line    int    `json:"line,omitempty"`
		Col     int    `json:"col,omitempty"`
	} `json:"error"`
}

// statusFor maps an error onto its HTTP status: admission sentinels
// first, then the structured kind.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, errNoSession):
		return http.StatusNotFound
	case errors.Is(err, errSessionGone):
		return http.StatusGone
	}
	switch serr.KindOf(err) {
	case serr.Parse:
		return http.StatusBadRequest
	case serr.Elaborate, serr.Assertion:
		return http.StatusUnprocessableEntity
	case serr.Canceled:
		return http.StatusRequestTimeout
	case serr.Limit:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeErr renders err as a JSON error response with the mapped status.
// Overload and drain responses carry Retry-After so well-behaved clients
// back off instead of hammering the queue.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	var body errBody
	body.Error.Kind = serr.KindOf(err).String()
	body.Error.Message = err.Error()
	var se *serr.Error
	if errors.As(err, &se) {
		body.Error.Line = se.Pos.Line
		body.Error.Col = se.Pos.Col
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc, _ := json.MarshalIndent(&body, "", "  ")
	w.Write(enc)
	io.WriteString(w, "\n")
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it during shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"status\":%q,\"sessions\":%d,\"queue_depth\":%d}\n",
		status, s.sessions.len(), s.QueueDepth())
}

// handleMetrics renders the Prometheus text-format counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.render(w, s.QueueDepth(), s.sessions.len())
	renderTenants(w, s.fq.snapshot())
	if s.cfg.Cluster != nil {
		renderCluster(w, s.cfg.Cluster.Snapshot())
	}
}

// clusterProxy forwards a session-scoped request to its owner worker
// when running as a coordinator; it reports whether it handled the
// request.  Session state lives worker-side, so the coordinator routes
// by session id (exactly, via the route table) or, for creates, by the
// design source — repeat creates of one design land on the worker
// already holding it compiled and warm.
func (s *Server) clusterProxy(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.Cluster == nil {
		return false
	}
	if s.draining.Load() {
		s.writeErr(w, errDraining)
		return true
	}
	key := r.PathValue("id")
	if key == "" {
		body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBody))
		if err != nil {
			s.writeErr(w, serr.Newf(serr.Limit, "server: reading request body: %v", err))
			return true
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		key = string(body)
	}
	if !s.cfg.Cluster.ProxySession(w, r, key) {
		s.writeErr(w, serr.Newf(serr.Limit, "server: no cluster worker reachable"))
	}
	return true
}
