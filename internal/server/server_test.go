package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"scaldtv"
)

// editableSource is a small multi-primitive design whose buffer delay can
// be edited without structural change, so a session PUT stays on the
// incremental path with a proper sub-design dirty cone.
const editableSource = `
design SESS
period 50ns
clockunit 6.25ns
reg R delay=(1.5,4.5) ("CK .P0-4", "D .S6-12") -> (Q)
buf B1 delay=(1,%g) (Q) -> (QB)
buf B2 delay=(1,2) (QB) -> (QC)
setuphold CHK setup=2.5 hold=1.5 ("D .S6-12", "CK .P0-4")
`

func sessSource(maxDelay float64) string { return fmt.Sprintf(editableSource, maxDelay) }

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func do(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// cliJSON computes the exact bytes `scaldtv -json` emits for src with the
// library appended: the JSON report plus one trailing newline.
func cliJSON(t *testing.T, src string, opts scaldtv.Options) []byte {
	t.Helper()
	res, err := scaldtv.VerifySource(src+"\n"+scaldtv.Library, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := scaldtv.JSONReport(res)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestStatelessVerifyParity is the acceptance contract of POST
// /v1/verify: for every example design the response body is
// byte-identical to the CLI's -json output, for several worker settings.
// The intra and cache parameters of older clients are ignored, whatever
// their value.
func TestStatelessVerifyParity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	designs, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.scald"))
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) == 0 {
		t.Fatal("no .scald designs under examples/")
	}
	for _, path := range designs {
		name := strings.TrimSuffix(filepath.Base(path), ".scald")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := cliJSON(t, string(src), scaldtv.Options{})
			for _, q := range []string{"lib=1", "lib=1&j=2", "lib=1&j=2&intra=2", "lib=1&cache=false", "lib=1&intra=x&cache=maybe"} {
				resp, got := post(t, ts.URL+"/v1/verify?"+q, string(src))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("?%s: status %d: %s", q, resp.StatusCode, got)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("?%s: response differs from scaldtv -json\n--- got ---\n%s\n--- want ---\n%s", q, got, want)
				}
			}
		})
	}
}

// TestVerifyJSONBody: the JSON request variant carries source and options
// in the body and produces the same report.
func TestVerifyJSONBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := sessSource(2)
	body, _ := json.Marshal(verifyRequest{Source: src, Lib: true})
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	want := cliJSON(t, src, scaldtv.Options{})
	if !bytes.Equal(got, want) {
		t.Errorf("JSON-body response differs from raw-body response\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// An older client's intra and cache fields are ignored.
	old, _ := json.Marshal(map[string]any{"source": src, "lib": true, "intra": 4, "cache": false})
	resp, err = http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("body with intra/cache fields: status %d, body differs: %v\n%s", resp.StatusCode, !bytes.Equal(got, want), got)
	}
}

// TestSessionIncremental is the acceptance contract of the session API:
// after a single-primitive delay edit the PUT response reports
// incremental=true with a dirty cone strictly smaller than the design,
// and the retained report equals a from-scratch verify of the edited
// source byte for byte.
func TestSessionIncremental(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := post(t, ts.URL+"/v1/sessions", sessSource(2))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var created sessionEnvelope
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("create response: %v\n%s", err, body)
	}
	if created.Session == "" || created.Incremental {
		t.Fatalf("create envelope: session=%q incremental=%v", created.Session, created.Incremental)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sessions/"+created.Session {
		t.Errorf("Location = %q", loc)
	}

	resp, body = do(t, http.MethodPut, ts.URL+"/v1/sessions/"+created.Session+"/design", sessSource(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, body)
	}
	var updated sessionEnvelope
	if err := json.Unmarshal(body, &updated); err != nil {
		t.Fatalf("update response: %v\n%s", err, body)
	}
	if !updated.Incremental {
		t.Error("one-delay edit did not take the incremental path")
	}
	if updated.DirtyPrims <= 0 || updated.DirtyPrims >= updated.Primitives {
		t.Errorf("DirtyPrims = %d of %d, want a proper sub-design cone", updated.DirtyPrims, updated.Primitives)
	}

	// The retained report answers byte-identically to a stateless verify
	// of the edited design.
	resp, got := do(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.Session+"/report", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d: %s", resp.StatusCode, got)
	}
	res, err := scaldtv.VerifySource(sessSource(3), scaldtv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scaldtv.JSONReport(res)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("incremental session report differs from scratch verify\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	if resp, body := do(t, http.MethodDelete, ts.URL+"/v1/sessions/"+created.Session, ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.Session+"/report", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("report after delete: status %d, want 404", resp.StatusCode)
	}
}

// TestSessionGateKindSwap: a session PUT that swaps the hazard example's
// AND clock gate for a CHG gate on a two-case design stays on the
// incremental path — netlist.Diff sees a same-shape parameter edit, so the
// compiled tape is kept — and the retained report equals a stateless
// verify of the edited source byte for byte.
func TestSessionGateKindSwap(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: scaldtv.Options{Workers: 2}})
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "hazard", "hazard.scald"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw) + "\ncase \"DATA\" = 0\ncase \"DATA\" = 1\n"
	edited := strings.Replace(src, `and "CLOCK GATE"`, `chg "CLOCK GATE"`, 1)
	if edited == src {
		t.Fatal("hazard example has no AND clock gate")
	}

	resp, body := post(t, ts.URL+"/v1/sessions", src)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var created sessionEnvelope
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("create response: %v\n%s", err, body)
	}
	resp, body = do(t, http.MethodPut, ts.URL+"/v1/sessions/"+created.Session+"/design", edited)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, body)
	}
	var updated sessionEnvelope
	if err := json.Unmarshal(body, &updated); err != nil {
		t.Fatalf("update response: %v\n%s", err, body)
	}
	if !updated.Incremental {
		t.Error("gate kind swap did not take the incremental path")
	}
	resp, got := do(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.Session+"/report", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d: %s", resp.StatusCode, got)
	}
	resp, want := post(t, ts.URL+"/v1/verify", edited)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stateless verify: status %d: %s", resp.StatusCode, want)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("incremental session report differs from stateless verify\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSessionCancelSelfHeals: cancelling a session update mid-verify
// answers 408 and drops the retained state inside the verifier, but the
// session survives — the next identical PUT runs from scratch and its
// report is byte-identical to a stateless verify (the abort-don't-corrupt
// contract over HTTP).
func TestSessionCancelSelfHeals(t *testing.T) {
	started := make(chan struct{}, 4)
	var gate sync.Map // request marker → wait for cancellation
	cfg := Config{onVerifyStart: func(ctx context.Context) {
		started <- struct{}{}
		if _, ok := gate.Load("block"); !ok {
			return
		}
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
		}
	}}
	_, ts := newTestServer(t, cfg)

	resp, body := post(t, ts.URL+"/v1/sessions", sessSource(2))
	<-started
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var created sessionEnvelope
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}

	// A PUT whose client disconnects mid-verify: the hook holds the run
	// until the request context is canceled.
	gate.Store("block", true)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		ts.URL+"/v1/sessions/"+created.Session+"/design", strings.NewReader(sessSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-started // the update reached its pool slot
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled PUT returned a response")
	}
	gate.Delete("block")

	// The session is intact: the same edit re-runs from scratch…
	resp, body = do(t, http.MethodPut, ts.URL+"/v1/sessions/"+created.Session+"/design", sessSource(3))
	<-started
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT after cancellation: status %d: %s", resp.StatusCode, body)
	}
	var healed sessionEnvelope
	if err := json.Unmarshal(body, &healed); err != nil {
		t.Fatal(err)
	}
	if healed.Incremental {
		t.Error("PUT after cancellation claims to be incremental (retained state should be gone)")
	}
	// …and lands on the exact from-scratch report.
	res, err := scaldtv.VerifySource(sessSource(3), scaldtv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scaldtv.JSONReport(res)
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := json.Compact(&report, healed.Report); err != nil {
		t.Fatal(err)
	}
	var wantCompact bytes.Buffer
	if err := json.Compact(&wantCompact, want); err != nil {
		t.Fatal(err)
	}
	if report.String() != wantCompact.String() {
		t.Errorf("report after self-heal differs from scratch verify\n--- got ---\n%s\n--- want ---\n%s",
			report.String(), wantCompact.String())
	}
}

// TestOverload429: beyond Pool+Queue requests in flight the server
// answers 429 with Retry-After immediately instead of blocking, and the
// queued work still completes once the pool frees up.
func TestOverload429(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	s, ts := newTestServer(t, Config{
		Pool:  1,
		Queue: 1,
		onVerifyStart: func(ctx context.Context) {
			started <- struct{}{}
			<-block
		},
	})

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/verify", "text/plain", strings.NewReader(sessSource(2)))
			if err != nil {
				results <- result{status: -1}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- result{resp.StatusCode, body}
		}()
	}
	<-started // one request holds the single pool slot…
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() < 2 { // …and the other sits in the queue
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := post(t, ts.URL+"/v1/verify", sessSource(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var eb errBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("429 body: %v\n%s", err, body)
	}

	close(block)
	<-started // the queued request reaches the pool
	for i := 0; i < 2; i++ {
		if r := <-results; r.status != http.StatusOK {
			t.Errorf("admitted request: status %d: %s", r.status, r.body)
		}
	}
	if got := s.QueueDepth(); got != 0 {
		t.Errorf("QueueDepth after drain = %d, want 0", got)
	}
}

// TestClientDisconnectCancels: a client that goes away cancels the
// verification cooperatively and frees the pool slot for the next
// request.
func TestClientDisconnectCancels(t *testing.T) {
	started := make(chan struct{}, 2)
	canceled := make(chan bool, 1)
	first := true
	var mu sync.Mutex
	_, ts := newTestServer(t, Config{
		Pool: 1,
		onVerifyStart: func(ctx context.Context) {
			started <- struct{}{}
			mu.Lock()
			f := first
			first = false
			mu.Unlock()
			if !f {
				return
			}
			select {
			case <-ctx.Done():
				canceled <- true
			case <-time.After(10 * time.Second):
				canceled <- false
			}
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/verify", strings.NewReader(sessSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	<-started
	cancel()
	if !<-canceled {
		t.Fatal("server never observed the client disconnect")
	}
	<-done

	// The slot was released: a fresh request completes normally.
	resp, body := post(t, ts.URL+"/v1/verify?lib=1", sessSource(2))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after disconnect: status %d: %s", resp.StatusCode, body)
	}
}

// TestDrain: while draining, in-flight verifications complete with 200
// but new work and /healthz answer 503.
func TestDrain(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{
		Pool: 1,
		onVerifyStart: func(ctx context.Context) {
			started <- struct{}{}
			<-block
		},
	})

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/verify", "text/plain", strings.NewReader(sessSource(2)))
		if err != nil {
			inflight <- result{status: -1}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inflight <- result{resp.StatusCode, body}
	}()
	<-started
	s.SetDraining(true)

	resp, body := post(t, ts.URL+"/v1/verify", sessSource(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("verify while draining: status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain 503 without Retry-After")
	}
	resp, body = do(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("draining")) {
		t.Errorf("healthz while draining: status %d body %s", resp.StatusCode, body)
	}

	close(block)
	if r := <-inflight; r.status != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d: %s", r.status, r.body)
	}
}

// TestSessionLRUEviction: beyond MaxSessions the least recently used
// session is evicted.
func TestSessionLRUEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 2})
	ids := make([]string, 3)
	for i := range ids {
		resp, body := post(t, ts.URL+"/v1/sessions", sessSource(2))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d: %s", i, resp.StatusCode, body)
		}
		var env sessionEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		ids[i] = env.Session
	}
	if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/sessions/"+ids[0]+"/report", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest session survived LRU eviction: status %d", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/sessions/"+id+"/report", ""); resp.StatusCode != http.StatusOK {
			t.Errorf("session %s evicted too early: status %d", id, resp.StatusCode)
		}
	}
}

// TestSessionTTL: sessions idle past the TTL are evicted on the next
// access, under an injected clock.
func TestSessionTTL(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	s, ts := newTestServer(t, Config{SessionTTL: time.Minute, now: clock})

	resp, body := post(t, ts.URL+"/v1/sessions", sessSource(2))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var env sessionEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}

	advance(30 * time.Second) // a touch inside the TTL keeps it alive
	if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/sessions/"+env.Session+"/report", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("session expired before its TTL: status %d", resp.StatusCode)
	}
	advance(59 * time.Second)
	if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/sessions/"+env.Session+"/report", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("touch did not refresh the TTL: status %d", resp.StatusCode)
	}
	advance(61 * time.Second)
	if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/sessions/"+env.Session+"/report", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("idle session survived its TTL: status %d", resp.StatusCode)
	}
	if n := s.sessions.len(); n != 0 {
		t.Errorf("session table length = %d after TTL eviction, want 0", n)
	}
}

// TestErrorMapping: structured error kinds map onto the documented HTTP
// statuses with a JSON body carrying kind and position.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBody: 256})
	cases := []struct {
		name   string
		method string
		url    string
		body   string
		status int
		kind   string
	}{
		{"parse", http.MethodPost, "/v1/verify", "design X\nperiod 50ns\nand (A<1:) -> (Y)\n", http.StatusBadRequest, "parse"},
		{"elaborate", http.MethodPost, "/v1/verify", "design X\nand (A) -> (Y)\n", http.StatusUnprocessableEntity, "elaborate"},
		{"empty-source", http.MethodPost, "/v1/verify", "", http.StatusBadRequest, "parse"},
		{"bad-query", http.MethodPost, "/v1/verify?j=banana", "design X\nperiod 50ns\n", http.StatusBadRequest, "parse"},
		{"body-too-large", http.MethodPost, "/v1/verify", strings.Repeat("x", 512), http.StatusServiceUnavailable, "limit"},
		{"no-session", http.MethodPut, "/v1/sessions/deadbeef/design", "design X\nperiod 50ns\n", http.StatusNotFound, "unknown"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := do(t, tc.method, ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var eb errBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body: %v\n%s", err, body)
			}
			if eb.Error.Kind != tc.kind {
				t.Errorf("kind %q, want %q (message %q)", eb.Error.Kind, tc.kind, eb.Error.Message)
			}
			if tc.name == "parse" && eb.Error.Line != 3 {
				t.Errorf("parse error Line = %d, want 3", eb.Error.Line)
			}
		})
	}
}

// TestStatisticalLimitKeepsServing: a statistical verify whose arrival
// distributions outgrow the quadrature's support cap answers with the
// Limit status instead of exhausting the process's memory, and the
// server answers the next request normally.
func TestStatisticalLimitKeepsServing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	huge := `design HUGE
period 50ns
buf "B" delay=(0.0,1000000000.0) ("IN .S0-25") -> ("X")
setuphold "CHK" setup=1.0 hold=1.0 ("X", "CK .P20-30")
`
	body, _ := json.Marshal(verifyRequest{Source: huge, Delays: "statistical"})
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, http.StatusServiceUnavailable, got)
	}
	var eb errBody
	if err := json.Unmarshal(got, &eb); err != nil || eb.Error.Kind != "limit" {
		t.Fatalf("error body %s (%v), want kind limit", got, err)
	}
	src := sessSource(2)
	resp, got = post(t, ts.URL+"/v1/verify", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next request: status %d: %s", resp.StatusCode, got)
	}
	if want := cliJSON(t, src, scaldtv.Options{}); !bytes.Equal(got, want) {
		t.Errorf("next request's report differs from the CLI's\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestReportFormats: the text renderings of a retained result.
func TestReportFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/sessions", sessSource(2))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var env sessionEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/sessions/" + env.Session + "/report"
	for format, want := range map[string]string{
		"errors":  "MINIMUM PULSE WIDTH", // error-listing header vocabulary
		"summary": "primitive",
		"xref":    "NO ASSERTION",
	} {
		resp, body := do(t, http.MethodGet, base+"?format="+format, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("format %s: status %d: %s", format, resp.StatusCode, body)
			continue
		}
		if !strings.Contains(strings.ToUpper(string(body)), strings.ToUpper(want)) {
			t.Errorf("format %s output missing %q:\n%s", format, want, body)
		}
	}
	if resp, _ := do(t, http.MethodGet, base+"?format=yaml", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp.StatusCode)
	}
}

// TestMetricsAndHealthz: the counters move and the exposition parses.
func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := do(t, http.MethodGet, ts.URL+"/healthz", ""); resp.StatusCode != http.StatusOK ||
		!bytes.Contains(body, []byte(`"status":"ok"`)) {
		t.Fatalf("healthz: status %d body %s", resp.StatusCode, body)
	}
	if resp, body := post(t, ts.URL+"/v1/verify", sessSource(2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status %d: %s", resp.StatusCode, body)
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"scaldtvd_verifies_total 1",
		"scaldtvd_rejected_total 0",
		"scaldtvd_queue_depth 0",
		"scaldtvd_sessions 0",
		"scaldtvd_cache_hit_rate",
		`scaldtvd_verify_wall_seconds{quantile="0.5"}`,
		`scaldtvd_verify_wall_seconds{quantile="0.99"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// BenchmarkServerStatelessVerify measures the full request path —
// decode, admit, compile, verify, render — for the quickstart design.
func BenchmarkServerStatelessVerify(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "quickstart", "quickstart.scald"))
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{})
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/verify?lib=1", bytes.NewReader(src))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}
