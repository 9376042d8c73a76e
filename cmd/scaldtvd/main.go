// Command scaldtvd serves the SCALD Timing Verifier over HTTP: stateless
// POST /v1/verify requests answer with the same JSON report bytes as
// `scaldtv -json`, POST /v1/explore runs automatic case exploration
// (the report carries the minimal case set discharging U/C-poisoned
// constraint sites, matching `scaldtv -explore -json` byte for byte),
// and stateful /v1/sessions retain a converged Verifier so that design
// edits are re-verified incrementally from the dirty cone.  See the
// package comment of internal/server for the endpoint and
// admission-control details.
//
// With -store the daemon persists converged runs in a content-addressed
// cache directory: repeated verify requests are answered from the store
// before the design is even compiled (the X-Scaldtv-Provenance header
// reports cached/warm/cold; the body bytes never change), sessions
// warm-start from the nearest persisted snapshot, and the cache
// survives restarts.
//
// On SIGTERM or SIGINT the daemon drains: new requests are refused with
// 503 while in-flight verifications run to completion (bounded by
// -drain), then the process exits 0.
//
// Cluster scale-out: with -worker the daemon additionally serves the
// batched sub-job endpoint POST /v1/batch (one case-analysis partition
// per ndjson line), making it an engine worker.  With
// -cluster host1:port,host2:port the daemon becomes a coordinator: it
// fans each verification's declared cases across the workers in batches,
// routes sessions to their owner worker by consistent hashing, retries
// partitions on surviving workers when one dies mid-batch, and merges
// the parts in declared case order — the distributed report is
// byte-identical to a local `scaldtv -json` run.  Tenants (the
// X-Scaldtv-Tenant header) get fair round-robin admission with
// per-tenant bounded queues (-tenant-queue) and per-tenant quota
// counters in /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"strings"

	"scaldtv"
	"scaldtv/internal/cluster"
	"scaldtv/internal/server"
	"scaldtv/internal/store"
)

func main() {
	addr := flag.String("addr", "localhost:7333", "listen address")
	workers := flag.Int("j", 1, "default case-evaluation workers per verification: 0 = one per CPU")
	pool := flag.Int("pool", 0, "concurrent verifications (0 = sized against per-run parallelism)")
	queue := flag.Int("queue", 16, "admitted requests that may wait for a verification slot before 429")
	sessions := flag.Int("sessions", 64, "retained incremental sessions (LRU beyond this)")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle longer than this")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request verification deadline")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace for in-flight verifications")
	storeDir := flag.String("store", "", "persist converged runs in this content-addressed cache directory")
	storeMax := flag.Int64("store-max", 0, "store size budget in bytes (0 = the 256 MiB default)")
	workerMode := flag.Bool("worker", false, "serve the cluster batch endpoint POST /v1/batch next to the ordinary API")
	clusterList := flag.String("cluster", "", "coordinate over these comma-separated worker base URLs instead of verifying locally")
	tenantQueue := flag.Int("tenant-queue", 0, "per-tenant waiting requests before 429 (0 = -queue)")
	flag.Parse()

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, *storeMax); err != nil {
			fmt.Fprintf(os.Stderr, "scaldtvd: %v\n", err)
			os.Exit(1)
		}
	}
	cfg := server.Config{
		Options:     scaldtv.Options{Workers: *workers},
		Pool:        *pool,
		Queue:       *queue,
		TenantQueue: *tenantQueue,
		MaxSessions: *sessions,
		SessionTTL:  *sessionTTL,
		Timeout:     *timeout,
		Store:       st,
	}
	if *clusterList != "" {
		if *workerMode {
			fmt.Fprintln(os.Stderr, "scaldtvd: -worker and -cluster are mutually exclusive")
			os.Exit(1)
		}
		var endpoints []string
		for _, ep := range strings.Split(*clusterList, ",") {
			ep = strings.TrimSpace(ep)
			if ep == "" {
				continue
			}
			if !strings.Contains(ep, "://") {
				ep = "http://" + ep
			}
			endpoints = append(endpoints, strings.TrimRight(ep, "/"))
		}
		if len(endpoints) == 0 {
			fmt.Fprintln(os.Stderr, "scaldtvd: -cluster needs at least one worker endpoint")
			os.Exit(1)
		}
		coord := cluster.NewCoordinator(cluster.CoordinatorConfig{Endpoints: endpoints})
		defer coord.Close()
		cfg.Cluster = coord
		log.Printf("scaldtvd: coordinating %d worker(s): %s", len(endpoints), strings.Join(endpoints, ", "))
	}
	var wk *cluster.Worker
	if *workerMode {
		wk = cluster.NewWorker(cluster.WorkerConfig{Store: st})
	}
	if err := run(*addr, cfg, wk, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "scaldtvd: %v\n", err)
		os.Exit(1)
	}
}

func run(addr string, cfg server.Config, wk *cluster.Worker, drain time.Duration) error {
	s := server.New(cfg)
	handler := s.Handler()
	if wk != nil {
		// Worker mode: the batch endpoint rides next to the ordinary API
		// (the coordinator health-checks the shared /healthz, so draining
		// a worker steers batches away), with the worker's own counters
		// under /worker/metrics.
		outer := http.NewServeMux()
		outer.Handle("/v1/batch", wk.Handler())
		outer.Handle("/worker/", http.StripPrefix("/worker", wk.Handler()))
		outer.Handle("/", handler)
		handler = outer
	}
	httpSrv := &http.Server{Handler: handler}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The readiness line CI and scripts poll for (in addition to /healthz).
	log.Printf("scaldtvd: listening on http://%s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("scaldtvd: %v: draining (grace %v)", sig, drain)
		// Refuse new work first, then let in-flight verifications finish.
		s.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		log.Printf("scaldtvd: drained, exiting")
		return nil
	}
}
