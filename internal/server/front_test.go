package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"scaldtv"
)

// TestStatelessVerifyStoreDelayModels: the store answers stateless
// verifies under every delay model, not only the worst-case one.  The
// first request runs cold, the repeat is answered from the store with
// the identical body, and the provenance header names both the store
// tier and the model.
func TestStatelessVerifyStoreDelayModels(t *testing.T) {
	src := readExample(t, "params")
	for _, m := range []struct {
		name, query, model string
		opts               scaldtv.Options
	}{
		{"statistical", "delays=statistical", "delays=statistical",
			scaldtv.Options{Delays: scaldtv.StatisticalDelays{}}},
		{"analytic", "delays=analytic&param=load=2", "delays=analytic load=2",
			scaldtv.Options{Delays: scaldtv.AnalyticDelays{Params: map[string]float64{"load": 2}}}},
	} {
		t.Run(m.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Store: testStore(t)})
			want := cliJSON(t, src, m.opts)
			for _, tier := range []string{"cold", "cached"} {
				resp, got := post(t, ts.URL+"/v1/verify?lib=1&"+m.query, src)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d: %s", tier, resp.StatusCode, got)
				}
				if p, wantP := resp.Header.Get("X-Scaldtv-Provenance"), tier+"; "+m.model; p != wantP {
					t.Errorf("%s: provenance header %q, want %q", tier, p, wantP)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: body differs from scaldtv -json\n--- got ---\n%s\n--- want ---\n%s", tier, got, want)
				}
			}
			if n := s.met.storeHits.Load(); n != 1 {
				t.Errorf("store hit counter = %d, want 1", n)
			}
		})
	}
}

// TestCornerQueriesThroughStore: a corner query reads the live margin
// surface, so it skips the byte probes; with a store it restores the
// stored session instead.  The answer is the same with no store, with
// a cold store and from a cached entry.
func TestCornerQueriesThroughStore(t *testing.T) {
	body, err := json.Marshal(verifyRequest{
		Source: readExample(t, "params"),
		Lib:    true,
		Delays: "analytic",
		Corners: []map[string]float64{
			{"load": 0.5},
			{"load": 3.5, "temp": 1.2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	query := func(ts string) (string, []byte) {
		t.Helper()
		resp, err := http.Post(ts+"/v1/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, out.Bytes())
		}
		return resp.Header.Get("X-Scaldtv-Provenance"), out.Bytes()
	}

	_, plain := newTestServer(t, Config{})
	prov, want := query(plain.URL)
	if prov != "delays=analytic" {
		t.Errorf("storeless provenance %q", prov)
	}
	if !bytes.Contains(want, []byte(`"corners"`)) || !bytes.Contains(want, []byte(`"margin_surface"`)) {
		t.Fatalf("response carries no corner answers:\n%s", want)
	}

	_, stored := newTestServer(t, Config{Store: testStore(t)})
	for _, tier := range []string{"cold", "cached"} {
		prov, got := query(stored.URL)
		if !strings.HasPrefix(prov, tier+";") {
			t.Errorf("%s: provenance header %q", tier, prov)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: corner answer differs from the storeless one\n--- got ---\n%s\n--- want ---\n%s", tier, got, want)
		}
	}
}

// TestCompileErrorIsNotAFailure: a design that does not compile answers
// 4xx on every endpoint — a session compiles inside its admission slot —
// without counting as a failed verification run.
func TestCompileErrorIsNotAFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const broken = "design X\nand (A) -> (Y)\n"
	resp, body := post(t, ts.URL+"/v1/sessions?lib=1", sessSource(2))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var env sessionEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct{ method, path string }{
		{http.MethodPost, "/v1/verify"},
		{http.MethodPost, "/v1/explore"},
		{http.MethodPost, "/v1/sessions"},
		{http.MethodPut, "/v1/sessions/" + env.Session + "/design"},
	} {
		resp, body := do(t, req.method, ts.URL+req.path, broken)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s %s: status %d, want 422: %s", req.method, req.path, resp.StatusCode, body)
		}
	}
	if n := s.met.failures.Load(); n != 0 {
		t.Errorf("compile errors counted as %d failed runs, want 0", n)
	}
}
