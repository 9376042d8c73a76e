package server

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestQueuedDisconnectFreesSlot locks the admission-release contract on
// client disconnect: a request that gives up while *queued* (not yet
// holding a pool slot) frees its queue position immediately, so new
// requests are admitted without a 429 even though the queue was full a
// moment ago.
func TestQueuedDisconnectFreesSlot(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	s, ts := newTestServer(t, Config{
		Pool:  1,
		Queue: 4,
		onVerifyStart: func(ctx context.Context) {
			started <- struct{}{}
			select {
			case <-block:
			case <-ctx.Done():
			}
		},
	})

	waitDepth := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.QueueDepth() != want {
			if time.Now().After(deadline) {
				t.Fatalf("queue depth never reached %d (at %d)", want, s.QueueDepth())
			}
			time.Sleep(time.Millisecond)
		}
	}

	fire := func(ctx context.Context) chan int {
		status := make(chan int, 1)
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/v1/verify", strings.NewReader(sessSource(2)))
			if err != nil {
				status <- -1
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				status <- -1 // disconnected before a response
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		return status
	}

	// One request holds the single slot, four fill the queue.
	holder := fire(context.Background())
	<-started
	ctxs := make([]context.CancelFunc, 4)
	queued := make([]chan int, 4)
	for i := range queued {
		ctx, cancel := context.WithCancel(context.Background())
		ctxs[i] = cancel
		queued[i] = fire(ctx)
	}
	waitDepth(5)

	// The queue is full: one more is refused.
	resp, body := post(t, ts.URL+"/v1/verify", sessSource(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429: %s", resp.StatusCode, body)
	}

	// Disconnect half the queued requests: their positions free
	// immediately, without waiting for the running verification.
	ctxs[0]()
	ctxs[1]()
	if st := <-queued[0]; st != -1 {
		t.Fatalf("disconnected request got status %d", st)
	}
	if st := <-queued[1]; st != -1 {
		t.Fatalf("disconnected request got status %d", st)
	}
	waitDepth(3)

	// Two fresh requests are admitted into the freed positions — no 429.
	fresh := []chan int{fire(context.Background()), fire(context.Background())}
	waitDepth(5)

	// Unblock and drain: everything still queued completes with 200.
	close(block)
	if st := <-holder; st != http.StatusOK {
		t.Errorf("holder finished with %d", st)
	}
	for i := 2; i < 4; i++ {
		if st := <-queued[i]; st != http.StatusOK {
			t.Errorf("queued request %d finished with %d", i, st)
		}
	}
	for i, ch := range fresh {
		if st := <-ch; st != http.StatusOK {
			t.Errorf("fresh request %d finished with %d", i, st)
		}
	}
	if got := s.QueueDepth(); got != 0 {
		t.Errorf("QueueDepth after drain = %d, want 0", got)
	}
}

// TestTenantRoundRobin locks grant fairness at the fairQueue level: with
// tenant A's queue deep and tenant B holding one waiter, B's request is
// granted on the second free slot, not after all of A's.
func TestTenantRoundRobin(t *testing.T) {
	q := newFairQueue(1, 8, 64)
	rel, err := q.admit(context.Background(), "A")
	if err != nil {
		t.Fatal(err)
	}

	grants := make(chan string, 4)
	var wg sync.WaitGroup
	enqueue := func(tenant string, wantQueued int) {
		t.Helper()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := q.admit(context.Background(), tenant)
			if err != nil {
				t.Error(err)
				return
			}
			grants <- tenant
			r()
		}()
		deadline := time.Now().Add(5 * time.Second)
		for {
			queued := 0
			for _, ts := range q.snapshot() {
				if ts.Tenant == tenant {
					queued = ts.Queued
				}
			}
			if queued == wantQueued {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant %s never reached %d queued", tenant, wantQueued)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// FIFO within A, round-robin across tenants: A1 A2 A3 then B1.
	enqueue("A", 1)
	enqueue("A", 2)
	enqueue("A", 3)
	enqueue("B", 1)

	rel() // free the slot: the grant chain drains every waiter
	wg.Wait()
	var order []string
	for i := 0; i < 4; i++ {
		order = append(order, <-grants)
	}
	want := "A B A A"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("grant order %q, want %q (round-robin across tenants, FIFO within)", got, want)
	}
}

// TestTenantRejectionIsolated: one tenant filling its queue 429s that
// tenant only; another tenant still queues fine.
func TestTenantRejectionIsolated(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{}, 8)
	s, ts := newTestServer(t, Config{
		Pool:  1,
		Queue: 1,
		onVerifyStart: func(ctx context.Context) {
			started <- struct{}{}
			select {
			case <-block:
			case <-ctx.Done():
			}
		},
	})

	tenantPost := func(tenant string) chan int {
		status := make(chan int, 1)
		go func() {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(sessSource(2)))
			if err != nil {
				status <- -1
				return
			}
			req.Header.Set(tenantHeader, tenant)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				status <- -1
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		return status
	}

	_ = tenantPost("alpha") // holds the slot
	<-started
	_ = tenantPost("alpha") // fills alpha's queue of 1
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second alpha request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Alpha is saturated: its next request is refused…
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(sessSource(2)))
	req.Header.Set(tenantHeader, "alpha")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant: status %d, want 429", resp.StatusCode)
	}

	// …while beta, untouched by alpha's backlog, still queues.
	beta := tenantPost("beta")
	for s.QueueDepth() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("beta request never queued — rejected by alpha's backlog?")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case st := <-beta:
		t.Fatalf("beta request finished early with %d", st)
	default:
	}

	// Per-tenant quota series are visible in /metrics.
	mresp, mbody := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", mresp.StatusCode)
	}
	for _, want := range []string{
		`scaldtvd_tenant_admitted_total{tenant="alpha"} 1`,
		`scaldtvd_tenant_rejected_total{tenant="alpha"} 1`,
		`scaldtvd_tenant_queued{tenant="beta"} 1`,
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q:\n%s", want, mbody)
		}
	}
}
