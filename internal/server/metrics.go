package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scaldtv"
	"scaldtv/internal/cluster"
	"scaldtv/internal/stats"
	"scaldtv/internal/store"
)

// wallRing bounds how many recent verification wall times feed the
// latency quantiles.
const wallRing = 512

// metrics holds the service counters exported in Prometheus text format.
// Counters are monotonic totals; the cache and dirty-cone figures are
// gauges describing the most recent run, because the engine's own
// counters are cumulative per Verifier and would double-count if summed
// across session re-runs.
type metrics struct {
	verifies     atomic.Int64 // completed verification runs
	incrementals atomic.Int64 // …of which answered from the dirty cone
	failures     atomic.Int64 // runs that returned an error
	rejected     atomic.Int64 // admissions refused with 429
	storeHits    atomic.Int64 // requests answered from the persistent store

	lastHitRate    atomic.Uint64 // float64 bits: cache hits / lookups, last run
	lastDirtyRatio atomic.Uint64 // float64 bits: dirty prims / prims, last incremental run

	mu     sync.Mutex
	walls  [wallRing]float64 // seconds, ring buffer of recent runs
	next   int
	filled bool
}

// count records one admitted request's outcome.  An answer from the
// store counts as a store hit, not a run; any other outcome is a
// completed run, observed with its engine statistics when it carries a
// Result (a distributed run's statistics live on the workers that ran
// its partitions).
func (m *metrics) count(oc *store.Outcome, wall time.Duration) {
	switch {
	case oc.Res != nil:
		m.observe(oc.Res, wall)
	case oc.Provenance != store.Cached:
		m.observe(nil, wall)
	}
	if oc.Provenance == store.Cached {
		m.storeHits.Add(1)
	}
}

// observe records one completed verification run; res is nil when only
// the wall time is known.
func (m *metrics) observe(res *scaldtv.Result, wall time.Duration) {
	m.verifies.Add(1)
	if res != nil {
		if res.Stats.CacheHits+res.Stats.CacheMisses > 0 {
			m.lastHitRate.Store(math.Float64bits(stats.HitRate(res.Stats.CacheHits, res.Stats.CacheMisses)))
		}
		if res.Stats.Incremental {
			m.incrementals.Add(1)
			if res.Stats.Primitives > 0 {
				m.lastDirtyRatio.Store(math.Float64bits(
					float64(res.Stats.DirtyPrims) / float64(res.Stats.Primitives)))
			}
		}
	}
	m.mu.Lock()
	m.walls[m.next] = wall.Seconds()
	m.next++
	if m.next == wallRing {
		m.next, m.filled = 0, true
	}
	m.mu.Unlock()
}

// quantiles returns the p50 and p99 of the recent wall times (nearest
// rank over the ring buffer), or ok=false before the first run.
func (m *metrics) quantiles() (p50, p99 float64, ok bool) {
	m.mu.Lock()
	n := m.next
	if m.filled {
		n = wallRing
	}
	sorted := make([]float64, n)
	copy(sorted, m.walls[:n])
	m.mu.Unlock()
	if n == 0 {
		return 0, 0, false
	}
	sort.Float64s(sorted)
	return nearestRank(sorted, 1, 2), nearestRank(sorted, 99, 100), true
}

// nearestRank returns the q = num/den nearest-rank order statistic of a
// sorted sample: the value at 1-based rank ceil(q·n), clamped to
// [1, n].  The rank is computed in integer arithmetic; the float
// equivalent math.Ceil(q*float64(n)) overshoots by a whole rank
// whenever the product rounds just above an integer (0.28×25 =
// 7.0000000000000009 → rank 8, not 7), silently reporting the next
// higher sample.
func nearestRank(sorted []float64, num, den int) float64 {
	n := len(sorted)
	r := (num*n + den - 1) / den
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// render writes the Prometheus text-format exposition.
func (m *metrics) render(w io.Writer, queueDepth, sessions int) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gaugeI := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("scaldtvd_verifies_total", "Completed verification runs.", m.verifies.Load())
	counter("scaldtvd_incremental_total", "Runs answered incrementally from the dirty cone.", m.incrementals.Load())
	counter("scaldtvd_verify_failures_total", "Verification runs that returned an error.", m.failures.Load())
	counter("scaldtvd_rejected_total", "Requests refused with 429 by admission control.", m.rejected.Load())
	counter("scaldtvd_store_hits_total", "Requests answered from the persistent verification store.", m.storeHits.Load())
	gaugeI("scaldtvd_queue_depth", "Requests holding or waiting for a verification slot.", queueDepth)
	gaugeI("scaldtvd_sessions", "Live sessions in the LRU table.", sessions)
	gaugeF("scaldtvd_cache_hit_rate", "Evaluation-memo hit rate of the most recent run.",
		math.Float64frombits(m.lastHitRate.Load()))
	gaugeF("scaldtvd_dirty_prim_ratio", "Dirty-cone share of the most recent incremental run.",
		math.Float64frombits(m.lastDirtyRatio.Load()))
	if p50, p99, ok := m.quantiles(); ok {
		fmt.Fprintf(w, "# HELP scaldtvd_verify_wall_seconds Verification wall time quantiles over recent runs.\n")
		fmt.Fprintf(w, "# TYPE scaldtvd_verify_wall_seconds summary\n")
		fmt.Fprintf(w, "scaldtvd_verify_wall_seconds{quantile=\"0.5\"} %g\n", p50)
		fmt.Fprintf(w, "scaldtvd_verify_wall_seconds{quantile=\"0.99\"} %g\n", p99)
	}
}

// renderTenants writes the per-tenant admission quota series.
func renderTenants(w io.Writer, tenants []tenantSnapshot) {
	if len(tenants) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP scaldtvd_tenant_admitted_total Requests granted a verification slot, per tenant.\n# TYPE scaldtvd_tenant_admitted_total counter\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "scaldtvd_tenant_admitted_total{tenant=%q} %d\n", t.Tenant, t.Admitted)
	}
	fmt.Fprintf(w, "# HELP scaldtvd_tenant_rejected_total Requests refused with 429, per tenant.\n# TYPE scaldtvd_tenant_rejected_total counter\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "scaldtvd_tenant_rejected_total{tenant=%q} %d\n", t.Tenant, t.Rejected)
	}
	fmt.Fprintf(w, "# HELP scaldtvd_tenant_queued Requests currently waiting for a slot, per tenant.\n# TYPE scaldtvd_tenant_queued gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "scaldtvd_tenant_queued{tenant=%q} %d\n", t.Tenant, t.Queued)
	}
}

// renderCluster writes the coordinator's fan-out counters.
func renderCluster(w io.Writer, st cluster.Stats) {
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("scaldtvd_cluster_workers", "Configured engine workers.", st.Workers)
	gauge("scaldtvd_cluster_healthy", "Workers currently passing health checks.", st.Healthy)
	counter("scaldtvd_cluster_subjobs_total", "Sub-jobs dispatched to workers.", st.Dispatched)
	counter("scaldtvd_cluster_batches_total", "Batch RPCs issued to workers.", st.Batches)
	counter("scaldtvd_cluster_failovers_total", "Sub-jobs re-dispatched after a worker failure.", st.Failovers)
	counter("scaldtvd_cluster_local_runs_total", "Sub-jobs that fell back to a local engine run.", st.LocalRuns)
}
