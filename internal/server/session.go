package server

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"scaldtv"
	"scaldtv/internal/report"
	"scaldtv/internal/store"
)

// A session retains a Verifier between requests, so a design edit is
// answered from the dirty cone of the previous fixed point instead of a
// from-scratch run (the §2.6 designer loop over HTTP).  The per-session
// mutex serializes verification work on the retained state; concurrent
// edits to one session queue behind each other while different sessions
// proceed in parallel (up to the admission pool).
type session struct {
	id   string
	mu   sync.Mutex
	V    *scaldtv.Verifier
	opts scaldtv.Options

	// dead is set (atomically, possibly while another request holds mu
	// for a long verification) when the table evicts or deletes the
	// session.  A handler that looked the session up before eviction
	// re-checks it after acquiring mu and answers 410 instead of
	// verifying into a session no request can ever reach again.
	dead atomic.Bool

	// Guarded by the owning table's mutex, not mu.
	elem     *list.Element
	lastUsed time.Time
}

// Session lookup sentinels: never-seen (or already swept) ids map to
// 404, a session that was evicted between lookup and use maps to 410.
var (
	errNoSession   = errors.New("server: no such session")
	errSessionGone = errors.New("server: session expired or deleted")
)

// sessionTable is an LRU-bounded, TTL-evicting map of live sessions.
// Eviction is lazy: expired entries are swept on every lookup, insert and
// length query, so an idle server holds stale Verifiers no longer than
// the next incoming request.
type sessionTable struct {
	mu   sync.Mutex
	max  int
	ttl  time.Duration
	now  func() time.Time
	byID map[string]*session
	lru  *list.List // front = most recently used; values are *session
}

func newSessionTable(max int, ttl time.Duration, now func() time.Time) *sessionTable {
	return &sessionTable{
		max:  max,
		ttl:  ttl,
		now:  now,
		byID: make(map[string]*session),
		lru:  list.New(),
	}
}

// evictExpired removes sessions idle past the TTL, marking each victim
// dead so a request that looked it up just before the sweep gets a
// clean 410 instead of verifying into an unreachable session.  Callers
// hold t.mu; the dead mark is an atomic store, so the sweep never
// blocks behind a victim's in-flight verification.
func (t *sessionTable) evictExpired() {
	deadline := t.now().Add(-t.ttl)
	for e := t.lru.Back(); e != nil; {
		s := e.Value.(*session)
		if s.lastUsed.After(deadline) {
			break // LRU order: everything nearer the front is fresher
		}
		prev := e.Prev()
		t.lru.Remove(e)
		delete(t.byID, s.id)
		s.dead.Store(true)
		e = prev
	}
}

// get looks a session up and marks it used.
func (t *sessionTable) get(id string) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evictExpired()
	s := t.byID[id]
	if s == nil {
		return nil
	}
	s.lastUsed = t.now()
	t.lru.MoveToFront(s.elem)
	return s
}

// put inserts a new session, evicting the least recently used one beyond
// the capacity bound.
func (t *sessionTable) put(s *session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evictExpired()
	for t.lru.Len() >= t.max {
		e := t.lru.Back()
		victim := e.Value.(*session)
		t.lru.Remove(e)
		delete(t.byID, victim.id)
		victim.dead.Store(true)
	}
	s.lastUsed = t.now()
	s.elem = t.lru.PushFront(s)
	t.byID[s.id] = s
}

// remove deletes a session; it reports whether the id was live.
func (t *sessionTable) remove(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.byID[id]
	if s == nil {
		return false
	}
	t.lru.Remove(s.elem)
	delete(t.byID, id)
	s.dead.Store(true)
	return true
}

func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evictExpired()
	return t.lru.Len()
}

func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// sessionEnvelope is the JSON response of the session endpoints: run
// provenance (whether the answer came from the dirty cone, and how big
// the cone was) wrapped around the ordinary verification report.  The
// embedded report is byte-identical to the stateless /v1/verify response
// for the same design state.
type sessionEnvelope struct {
	Schema      int             `json:"schema"`
	Session     string          `json:"session"`
	Incremental bool            `json:"incremental"`
	DirtyPrims  int             `json:"dirty_prims"`
	DirtyNets   int             `json:"dirty_nets"`
	ReusedWaves int             `json:"reused_waves"`
	Primitives  int             `json:"primitives"`
	Pass        bool            `json:"pass"`
	Violations  int             `json:"violations"`
	Provenance  string          `json:"provenance,omitempty"` // cached/cold; only with a store
	Report      json.RawMessage `json:"report"`
}

// envelope renders the session response for a completed run, reusing
// the report bytes a store already rendered.  The provenance is empty
// when the server runs without a store and for an update; the embedded
// report stays byte-identical either way.
func envelope(id string, oc *store.Outcome) ([]byte, error) {
	rep, err := oc.JSON()
	if err != nil {
		return nil, err
	}
	res := oc.Res
	return json.MarshalIndent(&sessionEnvelope{
		Schema:      report.SchemaVersion,
		Session:     id,
		Incremental: res.Stats.Incremental,
		DirtyPrims:  res.Stats.DirtyPrims,
		DirtyNets:   res.Stats.DirtyNets,
		ReusedWaves: res.Stats.ReusedWaves,
		Primitives:  res.Stats.Primitives,
		Pass:        !res.Errors(),
		Violations:  len(res.Violations),
		Provenance:  string(oc.Provenance),
		Report:      rep,
	}, "", "  ")
}

// writeEnvelope writes a rendered session response.
func writeEnvelope(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
	io.WriteString(w, "\n")
}

// handleSessionCreate (POST /v1/sessions) compiles the design, verifies
// it through the store — the envelope says whether the store already
// held the design's report — and retains the converged Verifier under a
// fresh session id.  Worker and cache options are fixed for the
// session's lifetime here; later PUTs only carry source.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.clusterProxy(w, r) {
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	src, opts, _, err := s.readRequest(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// A session retains a Verifier, which exploration leaves none of.
	opts.Explore = false
	id := newSessionID()
	oc, body := s.verifyAdmitted(ctx, w, r, compileFunc(src), func(ctx context.Context, d *scaldtv.Design) (*store.Outcome, error) {
		return store.Verify(ctx, s.cfg.Store, d, src, opts, true)
	}, func(oc *store.Outcome) ([]byte, error) { return envelope(id, oc) })
	if oc == nil {
		return
	}
	s.sessions.put(&session{id: id, V: oc.V, opts: opts})
	w.Header().Set("Location", "/v1/sessions/"+id)
	writeEnvelope(w, http.StatusCreated, body)
}

// handleSessionUpdate (PUT /v1/sessions/{id}/design) adopts an edited
// design: when it differs from the retained one only in parameters, the
// verifier re-verifies just the forward cone of the edits and the
// response reports incremental=true with the cone size; a structural
// edit transparently falls back to a full run.  The new report is saved
// to the store, so later requests — in this process or after a
// restart — find it cached.  A canceled update drops the retained state
// inside the verifier (abort-don't-corrupt), so the session survives and
// the next PUT simply runs from scratch.
func (s *Server) handleSessionUpdate(w http.ResponseWriter, r *http.Request) {
	if s.clusterProxy(w, r) {
		return
	}
	sess := s.sessions.get(r.PathValue("id"))
	if sess == nil {
		s.writeErr(w, errNoSession)
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	src, _, _, err := s.readRequest(r) // session options stay fixed; only source counts
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// Serialize edits to this session before taking a pool slot, so a
	// burst of edits to one session occupies at most one slot.
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.dead.Load() {
		// Evicted between lookup and lock (TTL sweep, LRU pressure or a
		// concurrent DELETE): the state is unreachable for any future
		// request, so verifying into it would silently discard the work.
		s.writeErr(w, errSessionGone)
		return
	}
	oc, body := s.verifyAdmitted(ctx, w, r, compileFunc(src), func(ctx context.Context, d *scaldtv.Design) (*store.Outcome, error) {
		return store.Update(ctx, s.cfg.Store, sess.V, d, src, sess.opts)
	}, func(oc *store.Outcome) ([]byte, error) { return envelope(sess.id, oc) })
	if oc != nil {
		writeEnvelope(w, http.StatusOK, body)
	}
}

// compileFunc is the compile step of a session request, which runs
// inside its admission slot.
func compileFunc(src string) func() (*scaldtv.Design, error) {
	return func() (*scaldtv.Design, error) { return scaldtv.Compile(src) }
}

// handleSessionReport (GET /v1/sessions/{id}/report) renders the
// retained result without re-verifying anything.  ?format= selects the
// rendering: json (default; byte-identical to /v1/verify), errors (the
// Fig 3-11 constraint-error listing), summary (run statistics), xref
// (the unasserted-signals cross reference).
func (s *Server) handleSessionReport(w http.ResponseWriter, r *http.Request) {
	if s.clusterProxy(w, r) {
		return
	}
	sess := s.sessions.get(r.PathValue("id"))
	if sess == nil {
		s.writeErr(w, errNoSession)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.dead.Load() {
		s.writeErr(w, errSessionGone)
		return
	}
	res := sess.V.Result()
	if res == nil {
		// The last run was canceled and dropped its state; there is
		// nothing to report until the next successful PUT.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		io.WriteString(w, `{"error":{"kind":"unknown","message":"server: session has no result; re-submit the design"}}`+"\n")
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		out, err := scaldtv.JSONReport(res)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
		io.WriteString(w, "\n")
	case "errors":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, scaldtv.ErrorListing(res))
	case "summary":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, scaldtv.Summary(res))
	case "xref":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, scaldtv.CrossReference(res))
	default:
		s.writeErr(w, &scaldtv.Error{Kind: scaldtv.ParseError,
			Msg: "server: unknown report format " + format + " (want json, errors, summary or xref)"})
	}
}

// handleSessionDelete (DELETE /v1/sessions/{id}) evicts a session.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if s.clusterProxy(w, r) {
		return
	}
	if !s.sessions.remove(r.PathValue("id")) {
		s.writeErr(w, errNoSession)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
