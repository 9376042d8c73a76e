package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"scaldtv"
	"scaldtv/internal/report"
	"scaldtv/internal/serr"
	"scaldtv/internal/verify"
)

// CoordinatorConfig tunes the coordinator half of the cluster.
type CoordinatorConfig struct {
	// Endpoints are the worker base URLs (http://host:port).
	Endpoints []string
	// Backoff is the initial re-dispatch delay, doubled per attempt.
	// Default 50ms.
	Backoff time.Duration
	// ProbeInterval is the health re-probe cadence for a worker marked
	// down.  Default 2s.
	ProbeInterval time.Duration
}

const (
	// retries bounds how many times one sub-job is re-dispatched to
	// another worker after its assigned worker fails mid-batch; beyond
	// that the sub-job runs locally on the coordinator.
	retries = 3
	// batchTimeout bounds one batch RPC.
	batchTimeout = 120 * time.Second
	// maxSessionRoutes bounds the exact session→owner routing table
	// (beyond it, lookups fall back to the consistent-hash ring).
	maxSessionRoutes = 4096
)

// Coordinator fans verification runs across engine workers: it
// partitions a run's declared cases into contiguous ranges, ships each
// range as part of a batched RPC to a worker chosen by consistent
// hashing (so repeat traffic finds warm caches), fails partitions over
// to surviving workers — or to a local run — when a worker dies
// mid-batch, and reassembles the parts in declared case order so the
// distributed report is byte-identical to a local single-process run.
type Coordinator struct {
	cfg     CoordinatorConfig
	workers []*workerRef
	ring    *ring
	designs *designCache
	closed  chan struct{}

	routeMu sync.Mutex
	routes  map[string]int // session id → worker index

	dispatched   atomic.Int64 // sub-jobs sent to workers
	batches      atomic.Int64 // batch RPCs issued
	failovers    atomic.Int64 // sub-jobs re-dispatched after a worker failure
	localRuns    atomic.Int64 // sub-jobs that fell back to a local engine run
	inflightRuns atomic.Int64 // Verify calls currently in flight (adaptive sharding)
}

// workerRef tracks one worker endpoint and its health.
type workerRef struct {
	url     string
	down    atomic.Bool
	probing atomic.Bool
	fails   atomic.Int64 // worker-level RPC failures (transport/non-200)

	mu    sync.Mutex
	queue []*pending
	busy  bool
}

type pending struct {
	job  *SubJob
	done chan dispatchResult
}

type dispatchResult struct {
	res *SubResult
	err error // transport-level failure of the batch carrying this job
}

// NewCoordinator builds a Coordinator over the worker endpoints.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    newRing(len(cfg.Endpoints)),
		designs: newDesignCache(),
		closed:  make(chan struct{}),
		routes:  make(map[string]int),
	}
	for _, ep := range cfg.Endpoints {
		c.workers = append(c.workers, &workerRef{url: ep})
	}
	return c
}

// Close stops background health probes.
func (c *Coordinator) Close() {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
}

// Workers reports the number of configured workers.
func (c *Coordinator) Workers() int { return len(c.workers) }

// Healthy reports the number of workers not currently marked down.
func (c *Coordinator) Healthy() int {
	n := 0
	for _, w := range c.workers {
		if !w.down.Load() {
			n++
		}
	}
	return n
}

// Stats is the coordinator's metrics snapshot.
type Stats struct {
	Workers    int
	Healthy    int
	Dispatched int64
	Batches    int64
	Failovers  int64
	LocalRuns  int64
}

// Snapshot returns the current metrics.
func (c *Coordinator) Snapshot() Stats {
	return Stats{
		Workers:    len(c.workers),
		Healthy:    c.Healthy(),
		Dispatched: c.dispatched.Load(),
		Batches:    c.batches.Load(),
		Failovers:  c.failovers.Load(),
		LocalRuns:  c.localRuns.Load(),
	}
}

func (c *Coordinator) alive(i int) bool { return !c.workers[i].down.Load() }

// Verify runs one verification through the cluster and returns the
// report bytes, byte-identical to `scaldtv -json` of the same source and
// options.  The shard count adapts to load: an otherwise-idle cluster
// splits the run's cases across workers for latency, while concurrent
// runs ship whole to their ring owners for throughput.  provenance
// describes how the run was obtained: a whole-run job passes its
// worker's provenance through (cached/cold), a partitioned run
// reports "sharded", a run with no reachable workers "local".
func (c *Coordinator) Verify(ctx context.Context, src string, opts verify.Options) (rep []byte, provenance string, err error) {
	d, err := c.designs.compile(src)
	if err != nil {
		return nil, "", err
	}
	total := len(d.Cases)
	if total == 0 {
		total = 1
	}

	key := srcHash(src)
	owner := c.ring.owner(key, c.alive)
	if owner < 0 || len(opts.Force) > 0 {
		// Runs the wire cannot express (forced waveforms) and clusters
		// with no worker alive run locally: same engine, same bytes.  The
		// next Verify re-dispatches once a probe brings a worker back.
		c.localRuns.Add(1)
		job := &SubJob{ID: c.jobID(key, 0), Source: src}
		return merge([]*SubResult{verifyPart(ctx, nil, d, job, opts, "local")})
	}

	load := int(c.inflightRuns.Add(1))
	defer c.inflightRuns.Add(-1)

	var jobs []*SubJob
	var assigned []int
	healthy := c.healthyList()
	// Sharding is adaptive to load.  Splitting one run's cases across
	// workers cuts its latency, but each partition re-pays the
	// first-case relaxation that one case chain would have
	// amortized — so under concurrent load (at least one run per
	// worker already in flight), runs ship whole to their ring owner
	// instead: full incremental case chain, warm per-design caches,
	// and throughput that scales with worker count.  An idle cluster
	// still fans a lone run out for latency.  Report bytes are
	// identical either way.
	ranges := verify.CaseRanges(total, len(healthy)/load)
	if opts.Explore || len(ranges) == 1 {
		// One shard (or an indivisible explore run): ship whole, pinned
		// to the ring owner so repeat traffic finds the design compiled
		// and the store warm.
		jobs = []*SubJob{{ID: c.jobID(key, 0), Source: src, Opts: WireOptions(opts)}}
		assigned = []int{owner}
	} else {
		// The case schedule's contiguous ranges in declared case order;
		// partition i starts at the ring owner and walks the healthy
		// list, so a design's partitions spread while staying stable run
		// to run.
		ownerPos := 0
		for i, w := range healthy {
			if w == owner {
				ownerPos = i
				break
			}
		}
		for i, cr := range ranges {
			jobs = append(jobs, &SubJob{
				ID:     c.jobID(key, i),
				Source: src,
				CaseLo: cr[0],
				CaseHi: cr[1],
				Opts:   WireOptions(opts),
			})
			assigned = append(assigned, healthy[(ownerPos+i)%len(healthy)])
		}
	}

	results := make([]*SubResult, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.dispatch(ctx, d, jobs[i], assigned[i])
		}(i)
	}
	wg.Wait()

	out, provenance, err := merge(results)
	if len(jobs) > 1 && err == nil {
		provenance = "sharded"
	}
	return out, provenance, err
}

// merge assembles the run's report from its parts in partition order.
// A single part passes its provenance through.
func merge(results []*SubResult) ([]byte, string, error) {
	parts := make([]*report.Report, len(results))
	for i, r := range results {
		if r.Err != nil {
			// First error in partition order, exactly as a local run
			// surfaces the first failing case.
			return nil, "", r.Err.Err()
		}
		parts[i] = r.Part
	}
	out, err := report.MergeParts(parts)
	if err != nil {
		return nil, "", err
	}
	return out, results[0].Provenance, nil
}

var jobSeq atomic.Int64

func (c *Coordinator) jobID(key uint64, part int) string {
	return fmt.Sprintf("%016x-%d-%d", key, part, jobSeq.Add(1))
}

// healthyList returns the indices of workers not marked down, in stable
// order.  When all are down it returns every worker, so dispatch still
// attempts (and re-probes) rather than instantly failing everything.
func (c *Coordinator) healthyList() []int {
	var up []int
	for i, w := range c.workers {
		if !w.down.Load() {
			up = append(up, i)
		}
	}
	if len(up) == 0 {
		for i := range c.workers {
			up = append(up, i)
		}
	}
	return up
}

// dispatch delivers one sub-job: enqueue on the assigned worker's
// batcher, and on worker failure re-dispatch with backoff to the next
// alive worker (consistent-hash walk), falling back to a local engine
// run when every attempt is exhausted.  Engine-level errors (a design
// that fails to verify) are results, not failures — they return
// immediately without failover.
func (c *Coordinator) dispatch(ctx context.Context, d *scaldtv.Design, job *SubJob, preferred int) *SubResult {
	tried := map[int]bool{}
	target := preferred
	backoff := c.cfg.Backoff
	for attempt := 0; attempt <= retries; attempt++ {
		if target < 0 {
			break
		}
		tried[target] = true
		c.dispatched.Add(1)
		done := c.enqueue(target, job)
		var dr dispatchResult
		select {
		case dr = <-done:
		case <-ctx.Done():
			return &SubResult{ID: job.ID, Err: wireErr(serr.Wrap(serr.Canceled, ctx.Err()))}
		}
		if dr.err == nil {
			return dr.res
		}
		// Worker-level failure: mark it down, start a recovery probe, and
		// fail the partition over.  No partial state leaks into the
		// report — the sub-job re-runs from scratch elsewhere.
		c.markDown(target)
		c.failovers.Add(1)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return &SubResult{ID: job.ID, Err: wireErr(serr.Wrap(serr.Canceled, ctx.Err()))}
		}
		backoff *= 2
		target = c.ring.owner(srcHash(job.ID), func(i int) bool { return c.alive(i) && !tried[i] })
	}
	// Exhausted: run the partition locally so the report still completes.
	c.localRuns.Add(1)
	rd, err := narrow(d, job)
	if err != nil {
		return &SubResult{ID: job.ID, Err: wireErr(err)}
	}
	return verifyPart(ctx, nil, rd, job, job.Opts.Options(), "local")
}

// enqueue appends a sub-job to the worker's batch queue, starting the
// drain loop when idle.  Jobs that accumulate while an RPC is in flight
// ship together in the next one — many small designs per round trip,
// with no added latency when the queue is empty.
func (c *Coordinator) enqueue(worker int, job *SubJob) chan dispatchResult {
	w := c.workers[worker]
	p := &pending{job: job, done: make(chan dispatchResult, 1)}
	w.mu.Lock()
	w.queue = append(w.queue, p)
	start := !w.busy
	if start {
		w.busy = true
	}
	w.mu.Unlock()
	if start {
		go c.drain(w)
	}
	return p.done
}

// drain ships the worker's queued sub-jobs batch by batch until the
// queue empties.
func (c *Coordinator) drain(w *workerRef) {
	for {
		w.mu.Lock()
		batch := w.queue
		w.queue = nil
		if len(batch) == 0 {
			w.busy = false
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()

		jobs := make([]*SubJob, len(batch))
		for i, p := range batch {
			jobs[i] = p.job
		}
		c.batches.Add(1)
		results, err := c.send(w, jobs)
		for i, p := range batch {
			if err != nil {
				p.done <- dispatchResult{err: err}
			} else {
				p.done <- dispatchResult{res: results[i]}
			}
		}
	}
}

// send performs one batch RPC against a worker.
func (c *Coordinator) send(w *workerRef, jobs []*SubJob) ([]*SubResult, error) {
	var body bytes.Buffer
	if err := encodeBatch(&body, jobs); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), batchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/batch", &body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		w.fails.Add(1)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.fails.Add(1)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("cluster: worker %s: HTTP %d", w.url, resp.StatusCode)
	}
	results, err := decodeResults(resp.Body, len(jobs))
	if err != nil {
		w.fails.Add(1)
		return nil, err
	}
	// The worker answers in request order; verify the IDs line up so a
	// confused worker cannot silently swap partitions.
	for i, r := range results {
		if r.ID != jobs[i].ID {
			w.fails.Add(1)
			return nil, fmt.Errorf("cluster: worker %s answered job %q in slot of %q", w.url, r.ID, jobs[i].ID)
		}
	}
	return results, nil
}

// markDown flags a worker dead and starts its recovery probe.
func (c *Coordinator) markDown(worker int) {
	w := c.workers[worker]
	if w.down.Swap(true) || !w.probing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer w.probing.Store(false)
		for {
			select {
			case <-c.closed:
				return
			case <-time.After(c.cfg.ProbeInterval):
			}
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeInterval)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
			if err != nil {
				cancel()
				return
			}
			resp, err := http.DefaultClient.Do(req)
			cancel()
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					w.down.Store(false)
					return
				}
			}
		}
	}()
}

// --- session routing ---

// SessionOwnerURL resolves the worker owning a session key: the exact
// route recorded at create time when known, the consistent-hash owner
// otherwise (stable across coordinator restarts for ring-routed ids).
// ok is false when no worker is alive.
func (c *Coordinator) SessionOwnerURL(key string) (string, bool) {
	c.routeMu.Lock()
	if i, found := c.routes[key]; found {
		c.routeMu.Unlock()
		if c.alive(i) {
			return c.workers[i].url, true
		}
		// The owner died: its in-memory session state is gone.  Fall
		// through to the ring so the client's recreate lands somewhere
		// alive.
		c.routeMu.Lock()
		delete(c.routes, key)
	}
	c.routeMu.Unlock()
	i := c.ring.owner(srcHash(key), c.alive)
	if i < 0 {
		return "", false
	}
	return c.workers[i].url, true
}

// NoteSession records a session id's owner after a create, so later
// requests route exactly even though the id was generated worker-side.
func (c *Coordinator) NoteSession(id, ownerURL string) {
	idx := -1
	for i, w := range c.workers {
		if w.url == ownerURL {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	if len(c.routes) >= maxSessionRoutes {
		// Drop an arbitrary entry; evicted ids fall back to ring routing.
		for k := range c.routes {
			delete(c.routes, k)
			break
		}
	}
	c.routes[id] = idx
}

// ProxySession forwards a session-scoped request to the owner worker and
// relays the response verbatim.  key is the routing key: the session id
// for existing sessions, the design source for creates.  On a create it
// records the returned session id's owner.  It reports false when no
// worker is reachable (the caller answers 503).
func (c *Coordinator) ProxySession(rw http.ResponseWriter, r *http.Request, key string) bool {
	owner, ok := c.SessionOwnerURL(key)
	if !ok {
		return false
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return false
	}
	url := owner + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		for i, w := range c.workers {
			if w.url == owner {
				c.markDown(i)
				break
			}
		}
		return false
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return false
	}
	if r.Method == http.MethodPost && resp.StatusCode == http.StatusCreated {
		var env struct {
			Session string `json:"session"`
		}
		if json.Unmarshal(respBody, &env) == nil && env.Session != "" {
			c.NoteSession(env.Session, owner)
		}
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			rw.Header().Add(k, v)
		}
	}
	rw.WriteHeader(resp.StatusCode)
	rw.Write(respBody)
	return true
}
