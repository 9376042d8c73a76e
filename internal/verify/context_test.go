package verify

import (
	"context"
	"errors"
	"testing"
	"time"

	"scaldtv/internal/netlist"
	"scaldtv/internal/serr"
	"scaldtv/internal/tick"
)

// TestRunContextCanceled: a pre-canceled context aborts both case
// schedules with a structured canceled error, before any result is
// produced.
func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []Options{
		{Workers: 1},
		{Workers: 2},
	} {
		d := buildMultiCase(t, 4)
		res, err := RunContext(ctx, d, opts)
		if err == nil {
			t.Fatalf("RunContext(%+v) ignored a canceled context (res=%v)", opts, res != nil)
		}
		if serr.KindOf(err) != serr.Canceled {
			t.Errorf("RunContext(%+v) error kind = %v, want canceled: %v", opts, serr.KindOf(err), err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("RunContext(%+v) error does not wrap context.Canceled: %v", opts, err)
		}
	}
}

// TestVerifierCancelLeavesNoRetainedState: a canceled VerifyContext
// retains nothing, and the next (uncancelled) Verify behaves exactly like
// a fresh session.
func TestVerifierCancelLeavesNoRetainedState(t *testing.T) {
	d := buildMultiCase(t, 4)
	opts := Options{Workers: 1, KeepWaves: true, Margins: true}
	V := NewVerifier(d, opts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := V.VerifyContext(ctx); err == nil {
		t.Fatal("VerifyContext ignored a canceled context")
	}
	if V.Result() != nil {
		t.Error("canceled VerifyContext retained a result")
	}
	got, err := V.Verify()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "verify after canceled verify", want, got)
}

// TestReverifyCancelFallsBackToScratch is the acceptance contract:
// cancelling a re-verification mid-session must not corrupt the session —
// the next Reverify falls back to a full run and stays bit-identical to a
// from-scratch Verify of the edited design.
func TestReverifyCancelFallsBackToScratch(t *testing.T) {
	for _, workers := range []int{1, 2} {
		d := buildMultiCase(t, 4)
		opts := Options{Workers: workers, KeepWaves: true, Margins: true}
		V := NewVerifier(d, opts)
		if _, err := V.Verify(); err != nil {
			t.Fatal(err)
		}

		pi := findPrim(t, d, "DELAY B")
		d.Prims[pi].Delay.Max += 4 * tick.NS
		ch := netlist.Changes{Prims: []netlist.PrimID{pi}}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := V.ReverifyContext(ctx, ch); err == nil {
			t.Fatal("ReverifyContext ignored a canceled context")
		}

		// The retained state was dropped: the next Reverify is a full run…
		inc, err := V.Reverify(ch)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Stats.Incremental {
			t.Error("Reverify after cancellation claims to be incremental")
		}
		// …and bit-identical to a scratch verification of the edited design.
		scratch, err := Run(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameReports(t, "reverify after canceled reverify", scratch, inc)
	}
}

// TestDeadlineMidVerifyIsCleanAbort: a deadline expiring somewhere inside
// a larger run either completes with the exact deterministic result or
// aborts with a canceled-kind error — never anything in between.  Run
// under -race this also exercises the barrier-side cancellation checks.
func TestDeadlineMidVerifyIsCleanAbort(t *testing.T) {
	want, err := Run(buildMultiCase(t, 6), Options{Workers: 2, KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, timeout := range []time.Duration{time.Microsecond, 50 * time.Microsecond, time.Second} {
		d := buildMultiCase(t, 6)
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		res, err := RunContext(ctx, d, Options{Workers: 2, KeepWaves: true})
		cancel()
		switch {
		case err != nil:
			if serr.KindOf(err) != serr.Canceled {
				t.Errorf("timeout %v: error kind %v, want canceled: %v", timeout, serr.KindOf(err), err)
			}
		case res != nil:
			sameReports(t, "deadline race", want, res)
		default:
			t.Errorf("timeout %v: nil result and nil error", timeout)
		}
	}
}
