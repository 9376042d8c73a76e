package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"scaldtv"
	"scaldtv/internal/netlist"
	"scaldtv/internal/report"
	"scaldtv/internal/serr"
	"scaldtv/internal/store"
	"scaldtv/internal/tape"
)

// WorkerConfig tunes an engine worker.
type WorkerConfig struct {
	// Store, when non-nil, answers whole-run sub-jobs of already-seen
	// designs from the persistent content-addressed cache and persists
	// fresh whole-run outcomes back, exactly like a standalone daemon.
	Store *store.Store
	// DesignCache bounds the in-memory LRU of compiled designs (with
	// their attached tape programs and warm memo tables).  Default 64.
	DesignCache int
}

// Worker is the engine half of the cluster: it owns a design cache and
// answers batched sub-jobs over POST /v1/batch.  It carries no
// cross-request verification state beyond its caches, so a worker that
// dies mid-batch loses nothing the coordinator cannot re-dispatch: every
// sub-job is a pure function of (source, case range, options).
type Worker struct {
	cfg     WorkerConfig
	designs *designCache
	mux     *http.ServeMux

	batches   atomic.Int64 // batch RPCs served
	jobs      atomic.Int64 // sub-jobs evaluated (store hits included)
	storeHits atomic.Int64 // sub-jobs answered from the persistent store
	failures  atomic.Int64 // sub-jobs that returned an error
}

// NewWorker builds a Worker.
func NewWorker(cfg WorkerConfig) *Worker {
	w := &Worker{cfg: cfg, designs: newDesignCache(cfg.DesignCache), mux: http.NewServeMux()}
	w.mux.HandleFunc("POST /v1/batch", w.handleBatch)
	w.mux.HandleFunc("GET /healthz", w.handleHealthz)
	w.mux.HandleFunc("GET /metrics", w.handleMetrics)
	return w
}

// Handler returns the worker's HTTP handler, for mounting on a server
// (cmd/scaldtvd mounts it next to the ordinary service endpoints in
// -worker mode).
func (w *Worker) Handler() http.Handler { return w.mux }

// handleBatch evaluates one ndjson batch of sub-jobs, streaming results
// back one line per job in request order.  Jobs within a batch run
// sequentially — the coordinator decides parallelism by how it spreads
// batches over workers, and each job still parallelizes internally per
// its own Workers option.
func (w *Worker) handleBatch(rw http.ResponseWriter, r *http.Request) {
	w.batches.Add(1)
	rw.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := rw.(http.Flusher)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	out := bufio.NewWriter(rw)
	defer out.Flush()
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		job, err := decodeJob(line)
		var res *SubResult
		if err != nil {
			res = &SubResult{Err: wireErr(serr.Newf(serr.Parse, "cluster: malformed sub-job: %v", err))}
		} else {
			res = w.runJob(r, job)
		}
		if err := writeResult(out, res); err != nil {
			return
		}
		out.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// runJob evaluates one sub-job: design from cache (compiling at most
// once per source text), whole runs through the persistent store when
// configured, case subsets as a narrowed design sharing the base
// design's compiled tape and levelization.
func (w *Worker) runJob(r *http.Request, job *SubJob) *SubResult {
	w.jobs.Add(1)
	res := &SubResult{ID: job.ID}
	opts := job.Opts.Options()

	// Whole-run source-text fast path: answer from the persistent store
	// before even compiling (explore runs always execute, as in the
	// standalone daemon — snapshots cannot carry the exploration section).
	useStore := w.cfg.Store != nil && job.WholeRun() && !opts.Explore
	if useStore {
		if rep, ok := w.cfg.Store.ServeReportSource(job.Source, opts); ok {
			if part, err := report.ParsePart(rep); err == nil {
				w.storeHits.Add(1)
				res.Part, res.Provenance = part, string(store.Cached)
				return res
			}
		}
	}

	d, err := w.designs.compile(job.Source)
	if err != nil {
		w.failures.Add(1)
		res.Err = wireErr(err)
		return res
	}

	rd, err := narrow(d, job)
	if err != nil {
		w.failures.Add(1)
		res.Err = wireErr(err)
		return res
	}

	if rd != d {
		// Prime the compiled program and levelization on the cached base
		// design so every case-subset variant shares them (WithCases
		// copies both cache pointers at creation).  Compile errors are
		// left for the engine, which classifies them properly.
		if _, err := tape.For(d); err == nil {
			d.Levelization()
		}
	}

	if useStore {
		oc, err := store.Verify(r.Context(), w.cfg.Store, d, job.Source, opts, false)
		if err != nil {
			w.failures.Add(1)
			res.Err = wireErr(err)
			return res
		}
		if oc.Res != nil {
			res.Part = report.NewPartial(oc.Res)
		} else if res.Part, err = report.ParsePart(oc.Report); err != nil {
			w.failures.Add(1)
			res.Err = wireErr(serr.Newf(serr.Limit, "cluster: stored report unusable: %v", err))
			return res
		}
		if oc.Provenance == store.Cached {
			w.storeHits.Add(1)
		}
		res.Provenance = string(oc.Provenance)
		return res
	}

	result, err := scaldtv.VerifyContext(r.Context(), rd, opts)
	if err != nil {
		w.failures.Add(1)
		res.Err = wireErr(err)
		return res
	}
	res.Part = report.NewPartial(result)
	res.Provenance = string(store.Cold)
	return res
}

// narrow resolves a sub-job's case range against the design: the whole
// design for a whole-run job, a case-subset variant otherwise.
func narrow(d *netlist.Design, job *SubJob) (*netlist.Design, error) {
	if job.WholeRun() {
		return d, nil
	}
	total := len(d.Cases)
	if total == 0 {
		total = 1 // the single unmapped cycle
	}
	if job.CaseLo < 0 || job.CaseHi <= job.CaseLo || job.CaseHi > total {
		return nil, serr.Newf(serr.Limit,
			"cluster: case range [%d,%d) outside the %d declared case(s)", job.CaseLo, job.CaseHi, total)
	}
	if len(d.Cases) == 0 {
		// Only the identity range is expressible; it is the whole run.
		return d, nil
	}
	if job.CaseLo == 0 && job.CaseHi == len(d.Cases) {
		return d, nil
	}
	return d.WithCases(d.Cases[job.CaseLo:job.CaseHi]), nil
}

func decodeJob(line []byte) (*SubJob, error) {
	job := &SubJob{}
	if err := json.Unmarshal(line, job); err != nil {
		return nil, err
	}
	if job.Source == "" {
		return nil, fmt.Errorf("empty design source")
	}
	return job, nil
}

// writeResult emits one result line of the ndjson response.
func writeResult(w io.Writer, res *SubResult) error {
	return json.NewEncoder(w).Encode(res)
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(rw, "{\"status\":\"ok\",\"designs\":%d}\n", w.designs.len())
}

// handleMetrics renders the worker's Prometheus counters (the full
// service metrics live on the coordinator; workers expose only their
// engine-side view).
func (w *Worker) handleMetrics(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(rw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("scaldtvw_batches_total", "Batch RPCs served.", w.batches.Load())
	counter("scaldtvw_subjobs_total", "Sub-jobs evaluated.", w.jobs.Load())
	counter("scaldtvw_store_hits_total", "Sub-jobs answered from the persistent store.", w.storeHits.Load())
	counter("scaldtvw_failures_total", "Sub-jobs that returned an error.", w.failures.Load())
	fmt.Fprintf(rw, "# HELP scaldtvw_designs Compiled designs held in the worker cache.\n# TYPE scaldtvw_designs gauge\nscaldtvw_designs %d\n", w.designs.len())
}
