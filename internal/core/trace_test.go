package core

import (
	"reflect"
	"testing"
	"time"

	"dyngraph/internal/commute"
	"dyngraph/internal/obs"
)

// TestOnlinePushTraceStages pins the observability acceptance contract:
// every scoring Push retains one trace whose ≥4 named stages tile the
// end-to-end push latency, and tracing never changes detector output.
func TestOnlinePushTraceStages(t *testing.T) {
	seq := multiTransitionSequence(t)
	tr := obs.NewTracer(16)

	traced := NewOnline(Config{}, 3)
	traced.SetTracer(tr)
	plain := NewOnline(Config{}, 3)
	for tt := 0; tt < seq.T(); tt++ {
		rep, err := traced.Push(seq.At(tt))
		if err != nil {
			t.Fatal(err)
		}
		prep, err := plain.Push(seq.At(tt))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, prep) {
			t.Fatalf("push %d: traced report differs from untraced", tt)
		}
	}

	traces := tr.Traces()
	if len(traces) != seq.T() {
		t.Fatalf("retained %d traces, want %d (one per Push)", len(traces), seq.T())
	}
	for i, root := range traces {
		if root.Name() != "push" {
			t.Fatalf("trace %d root = %q, want push", i, root.Name())
		}
		if !root.Ended() {
			t.Fatalf("trace %d root not ended", i)
		}
		if got, ok := root.Attr("t"); !ok || got.Value() != any(int64(i)) {
			t.Fatalf("trace %d attr t = %v, want %d", i, got, i)
		}
		if i == 0 {
			// The first instance only builds its oracle; nothing to score.
			if names := stageNames(root); !reflect.DeepEqual(names, []string{"oracle"}) {
				t.Fatalf("first-push stages = %v, want [oracle]", names)
			}
			continue
		}
		want := []string{"oracle", "score", "delta_select", "threshold"}
		if names := stageNames(root); !reflect.DeepEqual(names, want) {
			t.Fatalf("trace %d stages = %v, want %v", i, names, want)
		}
		// Stage durations must tile the push: their sum can never exceed
		// the root span, and the stages cover the whole body so the gap
		// should be small. The lower bound is deliberately loose (50%) to
		// stay robust under scheduler noise on a microsecond-scale push.
		var sum time.Duration
		for _, st := range root.Children() {
			if !st.Ended() {
				t.Fatalf("trace %d stage %q not ended", i, st.Name())
			}
			sum += st.Duration()
		}
		if sum > root.Duration() {
			t.Fatalf("trace %d stage sum %v exceeds push duration %v", i, sum, root.Duration())
		}
		if sum < root.Duration()/2 {
			t.Fatalf("trace %d stage sum %v < half of push duration %v — stages no longer tile Push", i, sum, root.Duration())
		}
		// The small-n exact oracle records its kind and nests the pinv
		// build span.
		oracle := root.Child("oracle")
		if kind, _ := oracle.Attr("kind"); kind.Value() != "exact" {
			t.Fatalf("trace %d oracle kind = %v, want exact", i, kind)
		}
		if oracle.Child("pinv") == nil {
			t.Fatalf("trace %d oracle span has no pinv child", i)
		}
		if _, ok := root.Child("delta_select").Attr("delta"); !ok {
			t.Fatalf("trace %d delta_select has no delta attr", i)
		}
	}
}

// TestOnlinePushTraceWarmEmbedding drives the embedding path with
// shared projections and checks the trace exposes the warm/cold split
// and the solver's nested build spans.
func TestOnlinePushTraceWarmEmbedding(t *testing.T) {
	seq := multiTransitionSequence(t)
	tr := obs.NewTracer(16)
	o := NewOnline(Config{
		ExactCutoff: 1, // force the embedding oracle even at n=10
		Commute:     commute.Config{K: 4, Seed: 7, SharedProjections: true},
	}, 3)
	o.SetTracer(tr)
	for tt := 0; tt < seq.T(); tt++ {
		if _, err := o.Push(seq.At(tt)); err != nil {
			t.Fatal(err)
		}
	}
	traces := tr.Traces()
	for i, root := range traces {
		oracle := root.Child("oracle")
		if oracle == nil {
			t.Fatalf("trace %d has no oracle stage", i)
		}
		if kind, _ := oracle.Attr("kind"); kind.Value() != "embedding" {
			t.Fatalf("trace %d oracle kind = %v, want embedding", i, kind)
		}
		wantWarm := i > 0 // every instance after the first warm-starts
		if warm, _ := oracle.Attr("warm"); warm.Value() != any(wantWarm) {
			t.Fatalf("trace %d oracle warm = %v, want %v", i, warm, wantWarm)
		}
		for _, child := range []string{"projection", "precond", "pcg"} {
			if oracle.Child(child) == nil {
				t.Fatalf("trace %d oracle span missing %q child (has %v)", i, child, stageNames(oracle))
			}
		}
		iters, ok := oracle.Child("pcg").Attr("pcg_iterations")
		if !ok || iters.Value().(int64) <= 0 {
			t.Fatalf("trace %d pcg span iterations = %v, want > 0", i, iters)
		}
		// Only the cold build probes for the preconditioner; warm builds
		// inherit the pin and carry no probe attributes.
		pick, probed := oracle.Child("precond").Attr("pick")
		if probed != (i == 0) {
			t.Fatalf("trace %d precond span pick = %v, probed %v, want probed only on the cold build", i, pick, probed)
		}
		if _, ok := oracle.Child("precond").Attr("probe_jacobi_est"); ok != probed {
			t.Fatalf("trace %d precond span probe estimate present = %v, want %v", i, ok, probed)
		}
	}
}

// TestBatchDetectorTraces checks Run's per-instance oracle traces and
// that tracing leaves batch output unchanged.
func TestBatchDetectorTraces(t *testing.T) {
	seq := multiTransitionSequence(t)
	tr := obs.NewTracer(16)
	d := New(Config{})
	d.SetTracer(tr)
	trs, err := d.Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(Config{}).Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trs, plain) {
		t.Fatal("traced batch run differs from untraced")
	}
	traces := tr.Traces()
	if len(traces) != seq.T() {
		t.Fatalf("retained %d traces, want %d (one per instance)", len(traces), seq.T())
	}
	for i, root := range traces {
		if root.Name() != "oracle" {
			t.Fatalf("trace %d root = %q, want oracle", i, root.Name())
		}
		if got, _ := root.Attr("t"); got.Value() != any(int64(i)) {
			t.Fatalf("trace %d attr t = %v, want %d", i, got, i)
		}
	}
}

// stageNames lists a span's direct children in emission order.
func stageNames(sp *obs.Span) []string {
	var names []string
	for _, c := range sp.Children() {
		names = append(names, c.Name())
	}
	return names
}
