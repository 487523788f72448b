package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyngraph/internal/commute"
	"dyngraph/internal/core"
	"dyngraph/internal/enron"
	"dyngraph/internal/graph"
)

// newTestServer boots a full HTTP stack: Server → Handler → httptest →
// Client.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, NewClient(hs.URL, hs.Client())
}

// testSequence builds a deterministic T-instance sequence on a 12-node
// two-cluster graph: jittered intra-cluster weights plus a bridge
// planted at the middle transition. seed varies the jitter so
// different streams carry different data.
func testSequence(t *testing.T, T int, seed int64) *graph.Sequence {
	t.Helper()
	mk := func(step int) *graph.Graph {
		b := graph.NewBuilder(12)
		for c := 0; c < 2; c++ {
			base := c * 6
			for i := 0; i < 6; i++ {
				for j := i + 1; j < 6; j++ {
					jitter := float64((seed+int64(step*7+i*3+j))%5) * 0.01
					b.SetEdge(base+i, base+j, 2+jitter)
				}
			}
		}
		b.SetEdge(0, 6, 0.2) // weak constant bridge keeps it connected
		if step == T/2 {
			b.SetEdge(2, 9, 3) // planted anomaly
		}
		return b.MustBuild()
	}
	gs := make([]*graph.Graph, T)
	for i := range gs {
		gs[i] = mk(i)
	}
	return graph.MustSequence(gs)
}

// onlineConfig mirrors a StreamConfig into the core config the service
// builds internally, for sequential reference runs.
func onlineConfig(cfg StreamConfig) core.Config {
	variant, _ := cfg.variant()
	return core.Config{
		Variant: variant,
		Commute: commute.Config{
			K:                   cfg.K,
			Seed:                cfg.Seed,
			Workers:             cfg.Workers,
			SharedProjections:   cfg.SharedProjections,
			IncrementalUpdates:  cfg.IncrementalUpdates,
			IncrementalMaxEdits: cfg.IncrementalMaxEdits,
			SparsifyTargetNNZ:   cfg.SparsifyTargetNNZ,
		},
		ExactCutoff: cfg.ExactCutoff,
	}
}

func TestStreamLifecycle(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()

	if err := cl.CreateStream(ctx, "emails", StreamConfig{L: 3}); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateStream(ctx, "emails", StreamConfig{}); err == nil {
		t.Fatal("duplicate create should fail")
	}
	if err := cl.CreateStream(ctx, "bad id!", StreamConfig{}); err == nil {
		t.Fatal("invalid id should fail")
	}
	if err := cl.CreateStream(ctx, "bad-variant", StreamConfig{Variant: "nope"}); err == nil {
		t.Fatal("unknown variant should fail")
	}

	infos, err := cl.Streams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != "emails" {
		t.Fatalf("Streams() = %+v, want exactly [emails]", infos)
	}
	if infos[0].Config.L != 3 || infos[0].Config.QueueSize != 64 {
		t.Fatalf("config defaults not applied: %+v", infos[0].Config)
	}

	info, err := cl.StreamInfo(ctx, "emails")
	if err != nil || info.ID != "emails" {
		t.Fatalf("StreamInfo = %+v, %v", info, err)
	}

	if err := cl.DeleteStream(ctx, "emails"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.StreamInfo(ctx, "emails"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete want ErrNotFound, got %v", err)
	}
	if err := cl.DeleteStream(ctx, "emails"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete want ErrNotFound, got %v", err)
	}
}

func TestSyncPushMatchesSequentialDetector(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	seq := testSequence(t, 5, 1)
	scfg := StreamConfig{L: 2, Seed: 7}

	if err := cl.CreateStream(ctx, "s", scfg); err != nil {
		t.Fatal(err)
	}
	var lastSync PushResult
	for i := 0; i < seq.T(); i++ {
		res, err := cl.Push(ctx, "s", seq.At(i), true)
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if res.Instance != i {
			t.Fatalf("push %d assigned instance %d", i, res.Instance)
		}
		if i == 0 && res.Report != nil {
			t.Fatal("first push should carry no report")
		}
		if i > 0 && res.Report == nil {
			t.Fatalf("push %d missing report", i)
		}
		lastSync = res
	}

	// Sequential reference with the identical configuration.
	ref := core.NewOnline(onlineConfig(scfg.withDefaults(64, 64)), scfg.L)
	for i := 0; i < seq.T(); i++ {
		if _, err := ref.Push(seq.At(i)); err != nil {
			t.Fatal(err)
		}
	}

	got, err := cl.Report(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Report().JSON()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("served report =\n%+v\nwant\n%+v", got, want)
	}
	if lastSync.Delta != ref.Delta() {
		t.Fatalf("sync push δ = %g, want %g", lastSync.Delta, ref.Delta())
	}

	// Transition endpoint agrees with the full report.
	tr, err := cl.Transition(ctx, "s", seq.T()/2-0)
	if err == nil {
		var found *core.TransitionJSON
		for i := range want.Transitions {
			if want.Transitions[i].Transition == tr.Transition {
				found = &want.Transitions[i]
			}
		}
		if found == nil || !reflect.DeepEqual(tr, *found) {
			t.Fatalf("transition endpoint %+v disagrees with report", tr)
		}
	} else {
		t.Fatal(err)
	}
	if _, err := cl.Transition(ctx, "s", 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("out-of-range transition want ErrNotFound, got %v", err)
	}
}

func TestQueueOverflowReturns429(t *testing.T) {
	srv, cl := newTestServer(t, Config{})
	ctx := context.Background()
	const queueSize = 2
	if err := cl.CreateStream(ctx, "narrow", StreamConfig{QueueSize: queueSize, L: 2}); err != nil {
		t.Fatal(err)
	}
	st, ok := srv.resident("narrow")
	if !ok {
		t.Fatal("stream not registered")
	}

	// Stall the worker: it needs detMu for every Push, so holding it
	// pins the worker with at most one in-flight job while the queue
	// fills behind it.
	st.detMu.Lock()
	g := testSequence(t, 2, 1).At(0)
	var full int
	for i := 0; i < queueSize+3; i++ {
		_, err := cl.Push(ctx, "narrow", g, false)
		if errors.Is(err, ErrQueueFull) {
			full++
		} else if err != nil {
			st.detMu.Unlock()
			t.Fatalf("push %d: %v", i, err)
		}
	}
	st.detMu.Unlock()
	if full == 0 {
		t.Fatal("no push hit the bounded queue (want at least one 429)")
	}

	waitDrained(t, cl, "narrow")
	info, err := cl.StreamInfo(ctx, "narrow")
	if err != nil {
		t.Fatal(err)
	}
	if info.Rejected != int64(full) {
		t.Fatalf("rejected counter = %d, want %d", info.Rejected, full)
	}
	if info.Processed != info.Ingested {
		t.Fatalf("drained stream has processed %d != ingested %d", info.Processed, info.Ingested)
	}
	if got := srv.metrics.counterValue("cadd_snapshots_rejected_total", labels("stream", "narrow")); got != float64(full) {
		t.Fatalf("rejected metric = %g, want %d", got, full)
	}
}

// waitDrained polls until the stream has scored everything it
// accepted.
func waitDrained(t *testing.T, cl *Client, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, err := cl.StreamInfo(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Processed == info.Ingested {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("stream %q did not drain in time", id)
}

func TestPushVertexShrinkIs422(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if err := cl.CreateStream(ctx, "s", StreamConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Push(ctx, "s", graph.NewBuilder(5).MustBuild(), true); err != nil {
		t.Fatal(err)
	}
	// Growth is accepted: a larger snapshot extends the vertex set.
	if _, err := cl.Push(ctx, "s", graph.NewBuilder(6).MustBuild(), true); err != nil {
		t.Fatalf("vertex growth push: %v", err)
	}
	// Shrink is not: vertices may be added but never removed.
	_, err := cl.Push(ctx, "s", graph.NewBuilder(5).MustBuild(), true)
	if err == nil || !strings.Contains(err.Error(), "vertices") {
		t.Fatalf("vertex shrink push: %v, want detector error", err)
	}
	info, ierr := cl.StreamInfo(ctx, "s")
	if ierr != nil {
		t.Fatal(ierr)
	}
	if info.LastError == "" {
		t.Fatal("LastError not recorded after failed push")
	}
}

func TestShutdownDrainsAcceptedSnapshots(t *testing.T) {
	srv, cl := newTestServer(t, Config{})
	ctx := context.Background()
	seq := testSequence(t, 6, 3)
	if err := cl.CreateStream(ctx, "s", StreamConfig{L: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seq.T(); i++ {
		if _, err := cl.Push(ctx, "s", seq.At(i), false); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	// Accepted snapshots were all scored before Shutdown returned.
	st, _ := srv.resident("s")
	st.detMu.Lock()
	processed := st.processed
	st.detMu.Unlock()
	if processed != int64(seq.T()) {
		t.Fatalf("processed %d of %d accepted snapshots at shutdown", processed, seq.T())
	}
	if err := srv.CreateStream("late", StreamConfig{}); err == nil {
		t.Fatal("create after shutdown should fail")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateStream(ctx, "m1", StreamConfig{L: 2}); err != nil {
		t.Fatal(err)
	}
	seq := testSequence(t, 3, 9)
	for i := 0; i < seq.T(); i++ {
		if _, err := cl.Push(ctx, "m1", seq.At(i), true); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`cadd_snapshots_ingested_total{stream="m1"} 3`,
		`cadd_snapshots_processed_total{stream="m1"} 3`,
		`cadd_push_seconds_bucket{oracle="exact",le="+Inf"} 3`,
		"# TYPE cadd_push_seconds histogram",
		"cadd_streams 1",
		`cadd_queue_depth{stream="m1"} 0`,
		`cadd_stream_delta{stream="m1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n---\n%s", want, body)
		}
	}
}

func TestStreamMaxHistoryWindow(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if err := cl.CreateStream(ctx, "w", StreamConfig{L: 2, MaxHistory: 2}); err != nil {
		t.Fatal(err)
	}
	seq := testSequence(t, 6, 5)
	for i := 0; i < seq.T(); i++ {
		if _, err := cl.Push(ctx, "w", seq.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	info, err := cl.StreamInfo(ctx, "w")
	if err != nil {
		t.Fatal(err)
	}
	if info.Transitions != 2 || info.Evicted != 3 {
		t.Fatalf("windowed stream retained %d / evicted %d, want 2 / 3", info.Transitions, info.Evicted)
	}
	// Evicted transitions are gone from the endpoint, retained ones
	// are addressable by their original indices.
	if _, err := cl.Transition(ctx, "w", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted transition should 404, got %v", err)
	}
	if _, err := cl.Transition(ctx, "w", 4); err != nil {
		t.Fatalf("retained transition errored: %v", err)
	}
}

// TestEnronReplayMatchesBatchCadrun is the acceptance check: a full
// Enron-simulator replay through the HTTP API must reproduce exactly
// the report the batch cadrun path prints — byte-identical JSON, since
// both sides share core.WriteReportJSON and the same oracle seeds.
func TestEnronReplayMatchesBatchCadrun(t *testing.T) {
	if testing.Short() {
		t.Skip("full 48-month replay in -short mode")
	}
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	data := enron.Generate(enron.Config{Seed: 1})
	const l, seed = 5.0, 1

	if err := cl.CreateStream(ctx, "enron", StreamConfig{L: l, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < data.Seq.T(); i++ {
		if _, err := cl.Push(ctx, "enron", data.Seq.At(i), true); err != nil {
			t.Fatalf("month %d: %v", i, err)
		}
	}

	// Raw served bytes.
	resp, err := http.Get(cl.base + "/v1/streams/enron/report")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The batch cadrun path: Detector → SelectDelta → shared encoder.
	det := core.New(core.Config{Commute: commute.Config{Seed: seed}})
	trs, err := det.Run(data.Seq)
	if err != nil {
		t.Fatal(err)
	}
	rep := core.Threshold(trs, core.SelectDelta(trs, l))
	var batch bytes.Buffer
	if err := core.WriteReportJSON(&batch, rep); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(served, batch.Bytes()) {
		t.Fatalf("served report differs from batch cadrun encoding\nserved %d bytes, batch %d bytes", len(served), batch.Len())
	}

	// And the report localizes the scripted scandal: the CEO anecdote
	// at transition 32 must be flagged with the CEO implicated.
	var found bool
	for _, tr := range rep.Transitions {
		if tr.T == 32 {
			for _, n := range tr.Nodes {
				if n == data.CEO {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("replayed report does not implicate the CEO at transition 32")
	}
}

// TestWarmStreamMatchesBatchDetector replays a sequence through a
// stream configured for the incremental fast path (shared projections,
// embedding oracle forced via exact_cutoff=1) and checks that (a) the
// served anomaly sets match the batch detector run with the identical
// configuration, and (b) the warm/cold build counters and PCG
// iteration counters show the incremental pipeline actually engaged.
// Runs under -race in CI, so it also exercises the locking around
// LastOracleStats.
func TestWarmStreamMatchesBatchDetector(t *testing.T) {
	srv, cl := newTestServer(t, Config{})
	ctx := context.Background()
	seq := testSequence(t, 6, 3)
	scfg := StreamConfig{L: 3, K: 24, Seed: 7, ExactCutoff: 1, SharedProjections: true}

	if err := cl.CreateStream(ctx, "warm", scfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seq.T(); i++ {
		if _, err := cl.Push(ctx, "warm", seq.At(i), true); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}

	got, err := cl.Report(ctx, "warm")
	if err != nil {
		t.Fatal(err)
	}
	batchCfg := onlineConfig(scfg.withDefaults(64, 64))
	trs, err := core.New(batchCfg).Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Threshold(trs, core.SelectDelta(trs, scfg.L)).JSON()
	// Warm solves converge to slightly different points than cold ones,
	// so scores agree only to solver tolerance; the localized anomaly
	// sets must be identical.
	if len(got.Transitions) != len(want.Transitions) {
		t.Fatalf("transition counts differ: %d vs %d", len(got.Transitions), len(want.Transitions))
	}
	scale := seq.At(0).Volume()
	for i := range want.Transitions {
		gt, wt := got.Transitions[i], want.Transitions[i]
		if !reflect.DeepEqual(gt.Nodes, wt.Nodes) {
			t.Fatalf("transition %d nodes differ: %v vs %v", i, gt.Nodes, wt.Nodes)
		}
		if len(gt.Edges) != len(wt.Edges) {
			t.Fatalf("transition %d edge counts differ: %d vs %d", i, len(gt.Edges), len(wt.Edges))
		}
		for p := range wt.Edges {
			if gt.Edges[p].I != wt.Edges[p].I || gt.Edges[p].J != wt.Edges[p].J {
				t.Fatalf("transition %d edge %d identity differs", i, p)
			}
			if d := gt.Edges[p].Score - wt.Edges[p].Score; d > 1e-5*scale || d < -1e-5*scale {
				t.Fatalf("transition %d edge %d: streamed score %g, batch %g",
					i, p, gt.Edges[p].Score, wt.Edges[p].Score)
			}
		}
	}

	// The first build is cold, every later one warm.
	if c := srv.metrics.counterValue("cadd_oracle_builds_total", labels("stream", "warm", "mode", "cold")); c != 1 {
		t.Errorf("cold builds = %g, want 1", c)
	}
	if w := srv.metrics.counterValue("cadd_oracle_builds_total", labels("stream", "warm", "mode", "warm")); w != float64(seq.T()-1) {
		t.Errorf("warm builds = %g, want %d", w, seq.T()-1)
	}
	iters := srv.metrics.counterValue("cadd_pcg_iterations_total", labels("stream", "warm"))
	est := srv.metrics.counterValue("cadd_pcg_cold_estimate_total", labels("stream", "warm"))
	if iters <= 0 || est <= 0 {
		t.Fatalf("PCG counters not populated: iterations %g, cold estimate %g", iters, est)
	}
	if iters >= est {
		t.Errorf("warm stream spent %g PCG iterations vs cold estimate %g — no saving", iters, est)
	}
	blk := srv.metrics.counterValue("cadd_pcg_block_iterations_total", labels("stream", "warm"))
	if blk <= 0 || blk >= iters {
		t.Errorf("block iterations = %g, want in (0, %g): the blocked solver should serve many columns per traversal", blk, iters)
	}

	// Only the cold build probes for a preconditioner; the warm builds
	// inherit its pin, which /statusz reports.
	solvers, _ := srv.Statusz()["solver"].(map[string]statuszSolver)
	pin := solvers["warm"].Precond
	if pin != "jacobi" && pin != "tree" {
		t.Fatalf("statusz solver section %+v, want the warm stream's pin", solvers)
	}
	if p := srv.metrics.counterValue("cadd_precond_probes_total", labels("stream", "warm", "pick", pin)); p != 1 {
		t.Errorf("probes picking %s = %g, want 1", pin, p)
	}
}
