package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scaldtv"
	"scaldtv/internal/gen"
	"scaldtv/internal/store"
)

func testStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestVerifyStoreProvenance drives POST /v1/verify through the two
// provenance tiers: a first-ever design runs cold, repeating it answers
// from the store without engine work, and a parameter edit runs cold.
// The body is byte-identical to the storeless server in every tier;
// provenance travels only in the X-Scaldtv-Provenance header.
func TestVerifyStoreProvenance(t *testing.T) {
	st := testStore(t)
	s, ts := newTestServer(t, Config{Store: st})
	src := sessSource(2)
	want := cliJSON(t, src, scaldtv.Options{})

	resp, got := post(t, ts.URL+"/v1/verify?lib=1", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, got)
	}
	if p := resp.Header.Get("X-Scaldtv-Provenance"); p != "cold" {
		t.Errorf("cold: provenance header %q", p)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cold body differs from scaldtv -json")
	}

	resp, got = post(t, ts.URL+"/v1/verify?lib=1", src)
	if p := resp.Header.Get("X-Scaldtv-Provenance"); p != "cached" {
		t.Errorf("repeat: provenance header %q, want cached", p)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cached body differs from the cold body\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if n := s.met.storeHits.Load(); n != 1 {
		t.Errorf("store hit counter = %d, want 1", n)
	}

	// Same structure, slower buffer: a new design, so it runs cold.
	edited := sessSource(3)
	resp, got = post(t, ts.URL+"/v1/verify?lib=1", edited)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edited: status %d: %s", resp.StatusCode, got)
	}
	if p := resp.Header.Get("X-Scaldtv-Provenance"); p != "cold" {
		t.Errorf("edited: provenance header %q, want cold", p)
	}
	if wantEd := cliJSON(t, edited, scaldtv.Options{}); !bytes.Equal(got, wantEd) {
		t.Errorf("edited body differs from scaldtv -json for the edited source")
	}

	// The new counters are exported.
	resp, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	for _, line := range []string{"scaldtvd_store_hits_total 1"} {
		if !strings.Contains(string(body), line) {
			t.Errorf("metrics missing %q:\n%s", line, body)
		}
	}
}

// TestStoreSurvivesRestart is the daemon-restart contract: a second
// server over the same store directory answers a previously verified
// design from the store — byte-identical — and creates sessions from
// the persisted state instead of running the engine cold.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := sessSource(2)
	want := cliJSON(t, src, scaldtv.Options{})

	_, ts1 := newTestServer(t, Config{Store: st1})
	if resp, got := post(t, ts1.URL+"/v1/verify?lib=1", src); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("first server cold verify failed: status %d", resp.StatusCode)
	}
	ts1.Close()

	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Store: st2})
	resp, got := post(t, ts2.URL+"/v1/verify?lib=1", src)
	if p := resp.Header.Get("X-Scaldtv-Provenance"); p != "cached" {
		t.Errorf("restarted server provenance %q, want cached", p)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restarted server body differs from the original\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Session create on the restarted server restores the snapshot.
	resp, body := post(t, ts2.URL+"/v1/sessions?lib=1", src)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"provenance": "cached"`) {
		t.Errorf("session create envelope does not carry cached provenance:\n%s", body)
	}
	// The restored session must still serve the byte-identical report.
	var env sessionEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	resp, rep := do(t, http.MethodGet, ts2.URL+"/v1/sessions/"+env.Session+"/report", "")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(rep, want) {
		t.Errorf("restored session report differs (status %d)", resp.StatusCode)
	}

	// …and keeps verifying incrementally after an edit.
	resp, body = do(t, http.MethodPut, ts2.URL+"/v1/sessions/"+env.Session+"/design?lib=1", sessSource(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"incremental": true`) {
		t.Errorf("edit after restore was not incremental:\n%s", body)
	}
}

// TestStoreKeepsDelayModelsApart: a store shared by statistical sessions
// and worst-case verifies answers each from its own model.  A repeated
// statistical session create is served from the store with the same
// report, site probabilities included, and a worst-case verify of the
// same source is never answered with the statistical report.
func TestStoreKeepsDelayModelsApart(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: testStore(t)})
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "quickstart", "quickstart.scald"))
	if err != nil {
		t.Fatal(err)
	}
	create := func() sessionEnvelope {
		t.Helper()
		resp, body := post(t, ts.URL+"/v1/sessions?lib=1&delays=statistical", string(src))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: status %d: %s", resp.StatusCode, body)
		}
		var env sessionEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		return env
	}
	cold, again := create(), create()
	if cold.Provenance != "cold" || again.Provenance != "cached" {
		t.Errorf("session provenances %q then %q, want cold then cached", cold.Provenance, again.Provenance)
	}
	if !bytes.Contains(again.Report, []byte(`"site_probs"`)) {
		t.Errorf("cached statistical session report lost its site probabilities:\n%s", again.Report)
	}
	if !bytes.Equal(again.Report, cold.Report) {
		t.Errorf("cached statistical session report differs from cold\n--- got ---\n%s\n--- want ---\n%s", again.Report, cold.Report)
	}

	resp, got := post(t, ts.URL+"/v1/verify?lib=1", string(src))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status %d: %s", resp.StatusCode, got)
	}
	if want := cliJSON(t, string(src), scaldtv.Options{}); !bytes.Equal(got, want) {
		t.Errorf("worst-case verify (provenance %q) differs from scaldtv -json\n--- got ---\n%s\n--- want ---\n%s",
			resp.Header.Get("X-Scaldtv-Provenance"), got, want)
	}
}

// BenchmarkWarmStartVerify quantifies the store fast path on the
// paper's 1003-chip tier: the same POST /v1/verify request served cold
// (full relaxation per request) versus from the persistent store (one
// directory probe plus a checksum pass).  The store-hit tier is the
// headline number for the PR's ≥10x acceptance bound.
func BenchmarkWarmStartVerify(b *testing.B) {
	src := []byte(gen.Source(gen.Config{Chips: 1003}))
	drive := func(b *testing.B, s *Server, wantProvenance string) {
		b.Helper()
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(src))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			if p := w.Header().Get("X-Scaldtv-Provenance"); p != wantProvenance {
				b.Fatalf("provenance %q, want %q", p, wantProvenance)
			}
		}
	}
	b.Run("chips=1003/cold", func(b *testing.B) {
		drive(b, New(Config{Options: scaldtv.Options{Workers: 1}}), "")
	})
	b.Run("chips=1003/storehit", func(b *testing.B) {
		st, err := store.Open(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		s := New(Config{Options: scaldtv.Options{Workers: 1}, Store: st})
		// Seed the store with the one cold run, outside the timer.
		req := httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(src))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("seed: status %d", w.Code)
		}
		drive(b, s, "cached")
	})
}
