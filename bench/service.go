package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"scaldtv/internal/gen"
	"scaldtv/internal/server"
	"scaldtv/internal/store"
)

// The service_mix workload: an in-process scaldtvd with a persistent
// store on a loopback listener, driven by two closed-loop clients, each
// on its own keep-alive connection, sending the next request when the
// previous one is answered.
const (
	serviceVariants = 8
	// coldPerClient is how many new-structure sources each client has
	// precomputed reports for; a client that runs out computes the next
	// one itself, untimed.
	coldPerClient = 40
	// storeBudget bounds the store directory.  It is large enough that a
	// run never evicts the warm-up entries its repeat requests hit.
	storeBudget = 4 << 30
)

// The mix: of every 20 ops a client sends, 9 are repeat verifies answered
// from the store, 2 verify a new delay on a stored structure (warm
// start), 1 verifies a new structure (cold), and 8 are steps of a session
// (create, three edits, report, delete).  Each client deals its ops from
// a deck of these 20, shuffled afresh by its seeded generator, so every
// run has the same shares; independent draws let the share of slow ops,
// and the p90 latency with it, wander from run to run.
type opKind int

const (
	opRepeat opKind = iota
	opWarm
	opCold
	opSession
)

var mixDeck = func() []opKind {
	var deck []opKind
	for kind, n := range []int{opRepeat: 9, opWarm: 2, opCold: 1, opSession: 8} {
		for i := 0; i < n; i++ {
			deck = append(deck, opKind(kind))
		}
	}
	return deck
}()

type serviceBench struct {
	cfg    config
	stages int

	variants []string // the pool of designs warmed into the store
	want     [][]byte // each variant's report, as /v1/verify answers it
	embedded [][]byte // each variant's report, as a session envelope embeds it
	cold     [2][]coldSource

	dir     string
	srv     *http.Server
	served  chan error
	url     string
	clients [2]*serviceClient
}

type coldSource struct {
	src  string
	want []byte
}

// serviceClient is one closed-loop client.  Its draws and its inputs
// depend only on the seed and on how many ops it ran.
type serviceClient struct {
	hc    *http.Client
	rng   *rand.Rand
	deck  []opKind // the kinds of the client's next ops
	edits int      // edit sources made so far
	colds int      // cold sources used so far

	session string // the open session, "" when none
	variant int    // the open session's design
	step    int    // steps the open session has taken
}

func prepareService(cfg config) (bench, error) {
	// The small size keeps ten stages, the fewest at which a feedback
	// fraction of 0.05 adds a feedback stage.
	n := chips(cfg, 1003, 170)
	b := &serviceBench{cfg: cfg, stages: gen.Stages(n)}
	// The variants are 8 of the 16 shapes, so no two share a structure.
	for v, shape := range rngFor(cfg.Seed, -5).Perm(16)[:serviceVariants] {
		src := gen.Source(shapeConfig(n, shape))
		want, err := scratchReport(src, engineOpts)
		if err != nil {
			return nil, err
		}
		// Every edit a client sends keeps each write-enable delay inside
		// [0.9, 1.1] x [2.7, 3.1] ns, which moves no violation: a report of
		// an edited variant is the variant's report.  Check it at the
		// extremes, every stage edited at once.
		for _, edge := range [][2]int{{900, 3100}, {1100, 2700}} {
			edited := src
			for s := 0; s < b.stages; s++ {
				if edited, err = weGateEdit(edited, s, edge[0], edge[1]); err != nil {
					return nil, err
				}
			}
			got, err := scratchReport(edited, engineOpts)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(got, want) {
				return nil, fmt.Errorf("variant %d: write-enable delays %v change the report", v, edge)
			}
		}
		b.variants = append(b.variants, src)
		b.want = append(b.want, append(want, '\n'))
		b.embedded = append(b.embedded, embedInEnvelope(want))
	}
	for c := range b.cold {
		for j := 0; j < coldPerClient; j++ {
			cs, err := b.makeCold(c, j)
			if err != nil {
				return nil, err
			}
			b.cold[c] = append(b.cold[c], cs)
		}
	}
	return b, nil
}

// embedInEnvelope renders a report the way the session envelope carries
// it: as a field one level deep in an indented JSON object.
func embedInEnvelope(rep []byte) []byte {
	var buf bytes.Buffer
	if err := json.Indent(&buf, rep, "  ", "  "); err != nil {
		panic(err) // rep came from report.JSON
	}
	return buf.Bytes()
}

// makeCold is a client's j-th new structure: a variant with a default
// wire delay no other source of the run has, which is part of the
// structural fingerprint, so the store has nothing to start it from.
func (b *serviceBench) makeCold(client, j int) (coldSource, error) {
	k := 1 + 2*j + client
	src := strings.Replace(b.variants[j%serviceVariants], "defaultwire 0ns 2ns",
		fmt.Sprintf("defaultwire %s 2ns", ps(k%1000)), 1)
	want, err := scratchReport(src, engineOpts)
	if err != nil {
		return coldSource{}, err
	}
	return coldSource{src: src, want: append(want, '\n')}, nil
}

// editSource is a client's next edit of a variant: one stage's
// write-enable delay set to a value no other source of the run has.
func (b *serviceBench) editSource(sc *serviceClient, client, v int) (string, error) {
	k := 2*sc.edits + client
	sc.edits++
	rest := k / b.stages
	return weGateEdit(b.variants[v], k%b.stages, 900+rest/401%201, 2700+rest%401)
}

// setup starts a fresh server and store and warms every variant into it.
func (b *serviceBench) setup() error {
	b.close()
	dir, err := os.MkdirTemp(b.cfg.TmpDir, "bench-store-")
	if err != nil {
		return err
	}
	b.dir = dir
	st, err := store.Open(dir, storeBudget)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s := server.New(server.Config{Options: engineOpts, Store: st})
	b.srv = &http.Server{Handler: s.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	b.url = "http://" + ln.Addr().String()
	for c := range b.clients {
		b.clients[c] = &serviceClient{
			hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			rng: rngFor(b.cfg.Seed, int64(-10-c)),
		}
	}
	for v, src := range b.variants {
		a, err := b.clients[0].do("POST", b.url+"/v1/verify", src)
		if err != nil {
			return err
		}
		if a.status != http.StatusOK || !bytes.Equal(a.body, b.want[v]) || a.provenance != string(store.Cold) {
			return fmt.Errorf("warming variant %d: status %d, provenance %q", v, a.status, a.provenance)
		}
	}
	return nil
}

func (b *serviceBench) close() {
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b.srv.Shutdown(ctx)
		cancel()
		<-b.served
		b.srv = nil
		for _, sc := range b.clients {
			sc.hc.CloseIdleConnections()
		}
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}

// settle deletes the sessions the clients left open when the run ended,
// so that heap_mb reads the server and its store, not however many
// sessions happened to be open.
func (b *serviceBench) settle() error {
	for _, sc := range b.clients {
		if sc.session == "" {
			continue
		}
		a, err := sc.do("DELETE", b.url+"/v1/sessions/"+sc.session, "")
		if err != nil {
			return err
		}
		if a.status != http.StatusNoContent {
			return fmt.Errorf("deleting session %s: status %d", sc.session, a.status)
		}
		sc.session = ""
	}
	return nil
}

// answer is what the server sent back.
type answer struct {
	status     int
	body       []byte
	provenance string // the store's part of X-Scaldtv-Provenance
	location   string
}

// do sends one request and reads the whole answer, so the connection
// stays reusable.
func (sc *serviceClient) do(method, url, body string) (answer, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	resp, err := sc.hc.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	a := answer{status: resp.StatusCode, location: resp.Header.Get("Location")}
	a.provenance, _, _ = strings.Cut(resp.Header.Get("X-Scaldtv-Provenance"), ";")
	a.body, err = io.ReadAll(resp.Body)
	return a, err
}

// request is one HTTP op: what to send and what must come back.
type request struct {
	span   string // span name; "" names it by the answer's provenance
	method string
	path   string
	body   string
	status int
	want   []byte // the exact body, or nil
	embeds []byte // bytes the body must contain, or nil
}

func (b *serviceBench) op(client int, _ int64, c *opCtx) (time.Duration, error) {
	sc := b.clients[client]
	var r request
	if err := c.untimed(func() error {
		var err error
		r, err = b.next(sc, client)
		return err
	}); err != nil {
		return 0, err
	}
	var a answer
	lat, err := c.timed(func() error {
		c.begin(r.span)
		var err error
		a, err = sc.do(r.method, b.url+r.path, r.body)
		if r.span == "" {
			c.endAs("server.verify_" + a.provenance)
		} else {
			c.end()
		}
		return err
	})
	c.value("server.rejected", b2f(a.status == http.StatusTooManyRequests))
	if r.path == "/v1/verify" {
		c.value("store.hit_ratio", b2f(a.provenance == string(store.Cached)))
		c.value("store.warm_ratio", b2f(a.provenance == string(store.Warm)))
	}
	if err != nil {
		return lat, err
	}
	return lat, c.untimed(func() error {
		a.body = c.received(a.body)
		if a.status != r.status {
			sc.session = ""
			return fmt.Errorf("%s %s: status %d, want %d: %s", r.method, r.path, a.status, r.status, a.body)
		}
		if r.want != nil && !bytes.Equal(a.body, r.want) {
			return fmt.Errorf("%s %s: body differs from the in-process report", r.method, r.path)
		}
		if r.embeds != nil && !bytes.Contains(a.body, r.embeds) {
			return fmt.Errorf("%s %s: envelope does not carry the in-process report", r.method, r.path)
		}
		if r.span == "server.session_create" {
			sc.session = strings.TrimPrefix(a.location, "/v1/sessions/")
		}
		return nil
	})
}

// next draws the client's next request.  A session, once created, takes
// its next step at each session draw until it is deleted.
func (b *serviceBench) next(sc *serviceClient, client int) (request, error) {
	if len(sc.deck) == 0 {
		sc.deck = append([]opKind(nil), mixDeck...)
		sc.rng.Shuffle(len(sc.deck), func(i, j int) { sc.deck[i], sc.deck[j] = sc.deck[j], sc.deck[i] })
	}
	kind := sc.deck[0]
	sc.deck = sc.deck[1:]
	v := sc.rng.Intn(serviceVariants)
	switch kind {
	case opRepeat:
		return request{method: "POST", path: "/v1/verify", body: b.variants[v], status: http.StatusOK, want: b.want[v]}, nil
	case opWarm:
		src, err := b.editSource(sc, client, v)
		return request{method: "POST", path: "/v1/verify", body: src, status: http.StatusOK, want: b.want[v]}, err
	case opCold:
		j := sc.colds
		sc.colds++
		cs := coldSource{}
		if j < len(b.cold[client]) {
			cs = b.cold[client][j]
		} else {
			var err error
			if cs, err = b.makeCold(client, j); err != nil {
				return request{}, err
			}
		}
		return request{method: "POST", path: "/v1/verify", body: cs.src, status: http.StatusOK, want: cs.want}, nil
	}
	if sc.session == "" {
		sc.variant, sc.step = v, 0
		return request{span: "server.session_create", method: "POST", path: "/v1/sessions",
			body: b.variants[v], status: http.StatusCreated, embeds: b.embedded[v]}, nil
	}
	v = sc.variant
	sc.step++
	path := "/v1/sessions/" + sc.session
	switch sc.step {
	case 1, 2, 3:
		src, err := b.editSource(sc, client, v)
		return request{span: "server.session_put", method: "PUT", path: path + "/design",
			body: src, status: http.StatusOK, embeds: b.embedded[v]}, err
	case 4:
		return request{span: "server.session_report", method: "GET", path: path + "/report",
			status: http.StatusOK, want: b.want[v]}, nil
	default:
		sc.session = ""
		return request{span: "server.session_delete", method: "DELETE", path: path, status: http.StatusNoContent}, nil
	}
}
