package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scaldtv"
	"scaldtv/internal/report"
	"scaldtv/internal/serr"
	"scaldtv/internal/store"
	"scaldtv/internal/verify"
)

// exampleSources loads every example design with the component library
// appended, the same corpus the engine's own determinism tests lock.
func exampleSources(t *testing.T) map[string]string {
	t.Helper()
	designs, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.scald"))
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) == 0 {
		t.Fatal("no .scald designs under examples/")
	}
	out := make(map[string]string, len(designs))
	for _, path := range designs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".scald")
		out[name] = string(src) + "\n" + scaldtv.Library
	}
	return out
}

// startWorkers brings up n in-process engine workers on httptest servers
// and returns their endpoints.
func startWorkers(t *testing.T, n int, st *store.Store) []string {
	t.Helper()
	endpoints := make([]string, n)
	for i := range endpoints {
		w := NewWorker(WorkerConfig{Store: st})
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		endpoints[i] = srv.URL
	}
	return endpoints
}

func testCoordinator(t *testing.T, endpoints []string) *Coordinator {
	t.Helper()
	c := NewCoordinator(CoordinatorConfig{
		Endpoints:     endpoints,
		Backoff:       time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
	})
	t.Cleanup(c.Close)
	return c
}

// TestClusterByteDeterminism is the distributed half of the report
// determinism contract: for every example design, the merged report of a
// coordinator over 1, 2 and 4 workers — across per-job worker counts —
// is byte-identical to a local single-process `scaldtv -json` run.
func TestClusterByteDeterminism(t *testing.T) {
	sources := exampleSources(t)
	endpoints := startWorkers(t, 4, nil)
	coords := map[int]*Coordinator{
		1: testCoordinator(t, endpoints[:1]),
		2: testCoordinator(t, endpoints[:2]),
		4: testCoordinator(t, endpoints),
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			for _, opts := range []verify.Options{
				{Workers: 1},
				{Workers: 8},
			} {
				res, err := scaldtv.VerifySource(src, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := scaldtv.JSONReport(res)
				if err != nil {
					t.Fatal(err)
				}
				for shards, c := range coords {
					got, _, err := c.Verify(context.Background(), src, opts)
					if err != nil {
						t.Fatalf("shards=%d opts=%+v: %v", shards, opts, err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("shards=%d opts=%+v: distributed report differs from local run\n--- got ---\n%s\n--- want ---\n%s",
							shards, opts, got, want)
					}
				}
			}
		})
	}
}

// TestClusterExploreAndStatistical extends the distributed determinism
// contract to the indivisible whole-run modes: exploration ships as one
// pinned sub-job, the statistical delay model partitions like any other
// run (site probabilities derive from per-case margins in case order).
func TestClusterExploreAndStatistical(t *testing.T) {
	sources := exampleSources(t)
	c := testCoordinator(t, startWorkers(t, 2, nil))
	for _, sub := range []struct {
		name, example string
		opts          verify.Options
	}{
		{"explore", "caseanalysis", verify.Options{Workers: 1, Explore: true}},
		{"statistical", "selftimed", verify.Options{Workers: 1, Delays: verify.DelayStatistical}},
	} {
		t.Run(sub.name, func(t *testing.T) {
			src := sources[sub.example]
			res, err := scaldtv.VerifySource(src, sub.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scaldtv.JSONReport(res)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := c.Verify(context.Background(), src, sub.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("distributed %s report differs from local run\n--- got ---\n%s\n--- want ---\n%s",
					sub.name, got, want)
			}
		})
	}
}

// TestClusterStoreProvenance locks the worker-side store fast path: a
// repeated whole-run verification is answered from the worker's
// persistent store (provenance cached) with identical bytes.
func TestClusterStoreProvenance(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sources := exampleSources(t)
	src := sources["quickstart"]
	c := testCoordinator(t, startWorkers(t, 1, st))
	opts := verify.Options{Workers: 1}

	first, prov1, err := c.Verify(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prov1 == string(store.Cached) {
		t.Fatalf("first run already cached (provenance %q)", prov1)
	}
	second, prov2, err := c.Verify(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prov2 != string(store.Cached) {
		t.Errorf("second run provenance = %q, want %q", prov2, store.Cached)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached report differs from cold report\n--- cold ---\n%s\n--- cached ---\n%s", first, second)
	}
}

// flakyWorker proxies one real worker but kills the connection of the
// first nKill batch requests — a worker dying mid-batch, as seen from
// the coordinator.
func flakyWorker(t *testing.T, nKill int) string {
	t.Helper()
	w := NewWorker(WorkerConfig{})
	var killed atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/v1/batch") && killed.Add(1) <= int64(nKill) {
			hj, ok := rw.(http.Hijacker)
			if !ok {
				t.Fatal("response writer is not a Hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close() // mid-request connection death
			return
		}
		w.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestClusterFailoverMidBatch kills a worker's connection mid-batch and
// asserts the re-dispatched partitions still merge into a report
// byte-identical to the local run, with the failure visible in the
// coordinator's counters and no error surfaced to the caller.
func TestClusterFailoverMidBatch(t *testing.T) {
	sources := exampleSources(t)
	src := sources["caseanalysis"] // multi-case: partitions actually split
	healthy := startWorkers(t, 1, nil)
	endpoints := []string{flakyWorker(t, 1), healthy[0]}
	c := testCoordinator(t, endpoints)

	opts := verify.Options{Workers: 1}
	res, err := scaldtv.VerifySource(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scaldtv.JSONReport(res)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Verify(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-failover report differs from local run\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if st := c.Snapshot(); st.Failovers == 0 {
		t.Errorf("no failover recorded: %+v", st)
	}
	// The probe window is tiny in tests; the killed worker serves normally
	// afterwards, so it must come back and the next run must still match.
	deadline := time.Now().Add(2 * time.Second)
	for c.Healthy() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Healthy() != 2 {
		t.Fatalf("worker never recovered: healthy=%d", c.Healthy())
	}
	got2, _, err := c.Verify(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Errorf("post-recovery report differs from local run")
	}
}

// TestClusterNoWorkersReachable points the coordinator at closed ports:
// every run must fall back to a local engine run with identical bytes.
func TestClusterNoWorkersReachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // closed port: connections refused
	sources := exampleSources(t)
	src := sources["quickstart"]
	c := testCoordinator(t, []string{dead.URL})

	opts := verify.Options{Workers: 1}
	res, err := scaldtv.VerifySource(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scaldtv.JSONReport(res)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Verify(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("local-fallback report differs from local run")
	}
	if st := c.Snapshot(); st.LocalRuns == 0 {
		t.Errorf("no local fallback recorded: %+v", st)
	}
}

// TestClusterErrorKind locks the wire round-trip of structured errors: a
// parse failure on a worker surfaces to the coordinator's caller with
// kind parse, exactly as a local run would fail.
func TestClusterErrorKind(t *testing.T) {
	c := testCoordinator(t, startWorkers(t, 1, nil))
	_, _, err := c.Verify(context.Background(), "design \"BROKEN\"\nuse \"NO SUCH MACRO\" \"X\" ()\n", verify.Options{})
	if err == nil {
		t.Fatal("verify of a broken design succeeded")
	}
	if kind := serr.KindOf(err); kind != serr.Parse && kind != serr.Elaborate {
		t.Errorf("error kind = %v, want parse or elaborate (err: %v)", kind, err)
	}
}

// TestRingOwnership locks the consistent-hash contract: stable owners,
// reasonable spread, and minimal movement when a worker dies (only the
// dead worker's keys move).
func TestRingOwnership(t *testing.T) {
	const workers, keys = 4, 4096
	r := newRing(workers)
	counts := make([]int, workers)
	owners := make([]int, keys)
	for k := 0; k < keys; k++ {
		o := r.owner(srcHash(fmt.Sprintf("key-%d", k)), nil)
		if o < 0 || o >= workers {
			t.Fatalf("key %d: owner %d out of range", k, o)
		}
		owners[k] = o
		counts[o]++
	}
	for w, n := range counts {
		if n < keys/workers/2 || n > keys*2/workers {
			t.Errorf("worker %d owns %d of %d keys — spread too uneven: %v", w, n, keys, counts)
		}
	}
	dead := 1
	moved := 0
	for k := 0; k < keys; k++ {
		o := r.owner(srcHash(fmt.Sprintf("key-%d", k)), func(i int) bool { return i != dead })
		if o == dead {
			t.Fatalf("key %d assigned to the dead worker", k)
		}
		if owners[k] != dead && o != owners[k] {
			t.Errorf("key %d moved from alive worker %d to %d", k, owners[k], o)
		}
		if owners[k] == dead {
			moved++
		}
	}
	if moved != counts[dead] {
		t.Errorf("moved %d keys, want exactly the dead worker's %d", moved, counts[dead])
	}
	if r.owner(srcHash("x"), func(int) bool { return false }) != -1 {
		t.Error("owner with no alive workers != -1")
	}
}

// TestMergePartsEquivalence is the unit-level merge contract: splitting
// a run's cases at every possible point and merging the two part
// renderings reproduces the full report byte for byte.
func TestMergePartsEquivalence(t *testing.T) {
	sources := exampleSources(t)
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			d, err := scaldtv.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Cases) < 2 {
				t.Skip("single-case design: nothing to split")
			}
			opts := verify.Options{Workers: 1}
			full, err := scaldtv.VerifyContext(context.Background(), d, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scaldtv.JSONReport(full)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 1; cut < len(d.Cases); cut++ {
				var parts []*report.Report
				for _, sub := range [][2]int{{0, cut}, {cut, len(d.Cases)}} {
					rd := d.WithCases(d.Cases[sub[0]:sub[1]])
					res, err := scaldtv.VerifyContext(context.Background(), rd, opts)
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, report.NewPartial(res))
				}
				got, err := report.MergeParts(parts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("cut=%d: merged parts differ from full report\n--- got ---\n%s\n--- want ---\n%s",
						cut, got, want)
				}
			}
		})
	}
}
