package server

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"scaldtv/internal/serr"
)

// tenantHeader names the request header carrying the tenant identity.
// Absent or empty means the shared "default" tenant.
const tenantHeader = "X-Scaldtv-Tenant"

// otherTenant is the shared bucket for tenants beyond the cardinality
// cap: their requests still queue fairly (as one aggregate tenant) and
// their metrics aggregate under one label, so an open endpoint cannot
// grow the queue map or the metrics exposition without bound.
const otherTenant = "other"

// maxTenants bounds how many distinct tenants a server tracks before new
// ones aggregate into otherTenant.
const maxTenants = 64

// tenantWaiter is one queued admission.
type tenantWaiter struct {
	ready   chan struct{}
	granted bool // guarded by the owning fairQueue's mu
}

// tenantStats are one tenant's admission counters, rendered into
// /metrics as per-tenant quota series.
type tenantStats struct {
	admitted int64
	rejected int64
	queued   int // current waiters
}

// fairQueue is multi-tenant admission control: a fixed pool of
// verification slots, a bounded FIFO waiter queue per tenant, and
// round-robin grants across tenants with waiters.  One tenant saturating
// its queue costs other tenants at most one slot-grant of latency, never
// their queue capacity: a burst of N requests from tenant A and one
// request from tenant B grants B's on the first or second free slot, not
// after A's N.  Rejections are per-tenant — tenant A filling its queue
// 429s tenant A only.
type fairQueue struct {
	mu        sync.Mutex
	slots     int // free slots
	perTenant int // waiter bound per tenant
	maxTenant int // distinct tenants tracked before lumping into otherTenant

	order  []string // round-robin rotation of tenants with waiters
	next   int      // rotation cursor into order
	queues map[string][]*tenantWaiter

	stats    map[string]*tenantStats
	inflight atomic.Int64 // granted + waiting, for the queue-depth gauge
}

func newFairQueue(pool, perTenant, maxTenant int) *fairQueue {
	return &fairQueue{
		slots:     pool,
		perTenant: perTenant,
		maxTenant: maxTenant,
		queues:    make(map[string][]*tenantWaiter),
		stats:     make(map[string]*tenantStats),
	}
}

// bucket maps a tenant identity onto its accounting bucket, enforcing
// the cardinality cap.  Callers hold q.mu.
func (q *fairQueue) bucket(tenant string) string {
	if tenant == "" {
		tenant = "default"
	}
	if _, known := q.stats[tenant]; !known && len(q.stats) >= q.maxTenant {
		return otherTenant
	}
	return tenant
}

func (q *fairQueue) statsFor(tenant string) *tenantStats {
	st := q.stats[tenant]
	if st == nil {
		st = &tenantStats{}
		q.stats[tenant] = st
	}
	return st
}

// admit reserves a verification slot for tenant, waiting in the tenant's
// bounded FIFO queue when the pool is busy.  It fails fast with
// errOverloaded once the tenant's queue is full, and a canceled request
// frees its queue position immediately — a disconnected client never
// holds admission capacity, which is what keeps a flaky tenant from
// starving the pool.  The returned release func must be called once.
func (q *fairQueue) admit(ctx context.Context, tenant string) (func(), error) {
	q.mu.Lock()
	tenant = q.bucket(tenant)
	st := q.statsFor(tenant)
	if q.slots > 0 {
		// A free slot implies no waiters (grants drain the queue before
		// slots accumulate), so taking it immediately cannot jump anyone.
		q.slots--
		st.admitted++
		q.inflight.Add(1)
		q.mu.Unlock()
		return func() { q.releaseSlot() }, nil
	}
	if st.queued >= q.perTenant {
		st.rejected++
		q.mu.Unlock()
		return nil, errOverloaded
	}
	w := &tenantWaiter{ready: make(chan struct{})}
	if _, waiting := q.queues[tenant]; !waiting {
		q.order = append(q.order, tenant)
	}
	q.queues[tenant] = append(q.queues[tenant], w)
	st.queued++
	q.inflight.Add(1)
	q.mu.Unlock()

	select {
	case <-w.ready:
		q.mu.Lock()
		st.admitted++
		q.mu.Unlock()
		return func() { q.releaseSlot() }, nil
	case <-ctx.Done():
		q.mu.Lock()
		if w.granted {
			// The grant raced the disconnect: the slot is ours, so pass it
			// straight to the next waiter instead of leaking it.
			st.admitted++
			q.mu.Unlock()
			q.releaseSlot()
			return nil, serr.Wrap(serr.Canceled, ctx.Err())
		}
		q.unqueue(tenant, w)
		q.inflight.Add(-1)
		q.mu.Unlock()
		return nil, serr.Wrap(serr.Canceled, ctx.Err())
	}
}

// releaseSlot returns a slot to the pool, granting it to the next waiter
// in round-robin tenant order when one exists.
func (q *fairQueue) releaseSlot() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.inflight.Add(-1)
	if w, _ := q.pop(); w != nil {
		w.granted = true
		close(w.ready)
		return
	}
	q.slots++
}

// pop dequeues the next waiter round-robin across tenants.  Callers hold
// q.mu.
func (q *fairQueue) pop() (*tenantWaiter, string) {
	for len(q.order) > 0 {
		if q.next >= len(q.order) {
			q.next = 0
		}
		tenant := q.order[q.next]
		queue := q.queues[tenant]
		if len(queue) == 0 {
			q.dropTenant(q.next)
			continue
		}
		w := queue[0]
		q.queues[tenant] = queue[1:]
		q.statsFor(tenant).queued--
		if len(q.queues[tenant]) == 0 {
			q.dropTenant(q.next)
		} else {
			q.next++
		}
		return w, tenant
	}
	return nil, ""
}

// dropTenant removes rotation slot i.  Callers hold q.mu.
func (q *fairQueue) dropTenant(i int) {
	delete(q.queues, q.order[i])
	q.order = append(q.order[:i], q.order[i+1:]...)
	if q.next > i {
		q.next--
	}
}

// unqueue removes a waiter that gave up (client disconnect), freeing its
// queue position immediately.  Callers hold q.mu.
func (q *fairQueue) unqueue(tenant string, w *tenantWaiter) {
	queue := q.queues[tenant]
	for i, cand := range queue {
		if cand == w {
			q.queues[tenant] = append(queue[:i:i], queue[i+1:]...)
			q.statsFor(tenant).queued--
			break
		}
	}
	if len(q.queues[tenant]) == 0 {
		for i, t := range q.order {
			if t == tenant {
				q.dropTenant(i)
				break
			}
		}
	}
}

// depth reports granted-plus-waiting admissions.
func (q *fairQueue) depth() int { return int(q.inflight.Load()) }

// tenantSnapshot is one tenant's quota view for /metrics.
type tenantSnapshot struct {
	Tenant   string
	Admitted int64
	Rejected int64
	Queued   int
}

// snapshot returns per-tenant admission counters sorted by tenant name,
// so the metrics exposition is stable scrape to scrape.
func (q *fairQueue) snapshot() []tenantSnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]tenantSnapshot, 0, len(q.stats))
	for tenant, st := range q.stats {
		out = append(out, tenantSnapshot{
			Tenant:   tenant,
			Admitted: st.admitted,
			Rejected: st.rejected,
			Queued:   st.queued,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
