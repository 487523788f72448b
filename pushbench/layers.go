package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dyngraph/internal/commute"
	"dyngraph/internal/core"
	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
	"dyngraph/internal/service"
	"dyngraph/internal/solver"
	"dyngraph/internal/tracecheck"
	"dyngraph/internal/wal"
)

// Layer spans of the traced replay, in push order. Each is a direct
// child of the replay's root "push" span and wraps the calls into the
// named package noted beside it, so its self time is its duration.
const (
	spanEncode  = "service.client_encode" // SnapshotFromGraph + json.Marshal
	spanDecode  = "service.json_decode"   // json.Unmarshal into Snapshot
	spanBuild   = "graph.build"           // Snapshot.Graph (graph.FromEdges)
	spanDiff    = "graph.diff"            // graph.DiffSupport
	spanPrecond = "solver.precond_setup"  // solver.NewLaplacian
	spanCold    = "solver.cold_solve"     // ProjectBlock + SolveBlock of a seeded 12-column RHS
	spanOracle  = "commute.oracle"        // chained commute.NewIncrementalFromTraced
	spanScore   = "core.score"            // core.TransitionScores
	spanPush    = "core.detector_push"    // OnlineDetector.Push
	spanReport  = "core.report"           // OnlineDetector.Report + WriteReportJSON
	spanWALEnc  = "wal.encode"            // wal.EncodeRecord + wal.EncodeFrame
	spanAppend  = "wal.append"            // (*wal.Log).AppendFrame
)

var layerSpans = []string{spanEncode, spanDecode, spanBuild, spanDiff, spanPrecond, spanCold,
	spanOracle, spanScore, spanPush, spanReport, spanWALEnc, spanAppend}

// perLayerMetrics lists every metric the traced run reports, with its
// unit, in print order. Its times are as measured, not scaled to the
// reference host; host.calib_slice_ms is the run's mean calibration
// slice (see calib.go), against which they can be read.
var perLayerMetrics = []metricSpec{
	{"service.report_p50_ms", "ms"},
	{"service.server_peak_rss_mb", "MB"},
	{"service.client_push_ms", "ms"},
	{"service.worker_push_ms", "ms"},
	{"service.outside_worker_ms", "ms"},
	{"service.client_encode_ms", "ms"},
	{"service.wire_bytes_per_push", "count"},
	{"service.json_decode_ms", "ms"},
	{"graph.build_ms", "ms"},
	{"graph.diff_ms", "ms"},
	{"graph.edits_per_push", "count"},
	{"solver.precond_setup_ms", "ms"},
	{"solver.cold_solve_ms", "ms"},
	{"solver.cold_iters_per_col", "count"},
	{"commute.oracle_ms", "ms"},
	{"commute.pcg_iters_per_push", "count"},
	{"commute.block_iters_per_push", "count"},
	{"commute.precond_reused_ratio", "ratio"},
	{"commute.incremental_ratio", "ratio"},
	{"commute.verify_skipped_ratio", "ratio"},
	{"commute.base_solves_per_push", "count"},
	{"core.score_ms", "ms"},
	{"core.detector_push_ms", "ms"},
	{"core.report_ms", "ms"},
	{"wal.encode_ms", "ms"},
	{"wal.bytes_per_push", "count"},
	{"wal.append_ms", "ms"},
	{"budget.resident_mb", "MB"},
	{"obs.push_span_coverage", "ratio"},
	{"replay.push_path_ms", "ms"},
	{"replay.client_push_coverage", "ratio"},
	{"replay.worker_push_coverage", "ratio"},
	{"host.calib_slice_ms", "ms"},
}

// Layers cadd runs for one push: pushPathSpans on the way from the
// client's graph to the ack, workerSpans of them in the stream worker
// that cadd_push_seconds times (the handler decodes and builds).
var (
	pushPathSpans = []string{spanEncode, spanDecode, spanBuild, spanPush, spanWALEnc, spanAppend}
	workerSpans   = []string{spanPush, spanWALEnc, spanAppend}
)

// runTraced boots cadd with push tracing on, runs the workload's
// window, checks outputs as the end-to-end run does, records the
// client's mean push time, cadd's worker time, resident bytes and
// trace coverage, and then replays the workload's leading instances
// through each layer's public calls under the benchmark's own spans.
// The replayed layers on the push path are summed and set against
// cadd's client and worker push times, so a layer the replay misses
// shows as a coverage gap.
func runTraced(opt options) (result, error) {
	w := opt.workload
	s, err := boot(opt, 64, newCalibrator())
	if err != nil {
		return result{}, err
	}
	defer s.d.stop()
	m, err := s.measure(w, opt.window)
	if err != nil {
		return result{}, err
	}
	if n := m.counterPerPush("cadd_push_seconds_count"); n != 1 {
		return result{}, fmt.Errorf("cadd counted %v pushes per client push in the window", n)
	}
	worker := m.counterPerPush("cadd_push_seconds_sum") * 1000
	ctx, cancel := withTimeout()
	defer cancel()
	coverage, err := s.spanCoverage(ctx)
	if err != nil {
		return result{}, err
	}
	final, modes, err := s.report()
	if err != nil {
		return result{}, err
	}
	s.d.stop()

	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if res.Correct {
		if err := verify(opt, s.cfg, m.pushes, final, modes); err != nil {
			fmt.Fprintln(os.Stderr, "pushbench: check failed:", err)
			res.Correct = false
		}
	}

	lm, err := replayLayers(opt, s.cfg)
	if err != nil {
		return result{}, err
	}
	for k, v := range m.figures() {
		lm[k] = v
	}
	clientMean := lm["service.client_push_ms"]
	lm["service.worker_push_ms"] = worker
	lm["service.outside_worker_ms"] = clientMean - worker
	pushPath, workerPath := sumSpans(lm, pushPathSpans), sumSpans(lm, workerSpans)
	lm["replay.push_path_ms"] = pushPath
	lm["replay.client_push_coverage"] = pushPath / clientMean
	lm["replay.worker_push_coverage"] = workerPath / worker
	lm["budget.resident_mb"] = sumSeries(m.after, "cadd_resident_bytes") / (1 << 20)
	lm["obs.push_span_coverage"] = coverage
	for _, spec := range perLayerMetrics {
		v, ok := lm[spec.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", spec.name)
		}
		res.Metrics[spec.name] = metric{v, spec.unit}
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", spec.name, v, spec.unit)
	}
	fmt.Fprintf(os.Stderr, "pushbench: %s split: encode+decode+build = %.1f%% of the client push; oracle = %.1f%% of the detector push; "+
		"push-path layer self times sum to %.2fms = %.1f%% of cadd's %.2fms client push, worker layers %.2fms = %.1f%% of its %.2fms worker push\n",
		w.name,
		100*(lm["service.client_encode_ms"]+lm["service.json_decode_ms"]+lm["graph.build_ms"])/clientMean,
		100*lm["commute.oracle_ms"]/lm["core.detector_push_ms"],
		pushPath, 100*lm["replay.client_push_coverage"], clientMean,
		workerPath, 100*lm["replay.worker_push_coverage"], worker)
	return res, nil
}

// sumSpans adds the replay's mean self times of the named layer spans.
func sumSpans(lm map[string]float64, spans []string) float64 {
	var total float64
	for _, name := range spans {
		total += lm[name+"_ms"]
	}
	return total
}

// spanCoverage is the mean, over cadd's retained push traces, of the
// share of the root span its stage children cover.
func (s *session) spanCoverage(ctx context.Context) (float64, error) {
	raw, err := get(ctx, s.hc, s.d.base+"/debug/traces")
	if err != nil {
		return 0, err
	}
	var streams []struct {
		Traces []obs.TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(raw, &streams); err != nil {
		return 0, fmt.Errorf("decode /debug/traces: %w", err)
	}
	var shares []float64
	for _, st := range streams {
		for _, tr := range st.Traces {
			if tr.Name != "push" || tr.DurationNs <= 0 {
				continue
			}
			var covered int64
			for _, c := range tr.Children {
				covered += c.DurationNs
			}
			shares = append(shares, float64(covered)/float64(tr.DurationNs))
		}
	}
	if len(shares) == 0 {
		return 0, fmt.Errorf("cadd retained no push traces")
	}
	return mean(shares), nil
}

// replayLayers replays the workload's leading instances through
// each layer's public calls, one span per call, writes the spans as a
// Chrome trace under the work directory, validates it with tracecheck
// and returns the per-layer metrics (means over the warm instances).
func replayLayers(opt options, cfg service.StreamConfig) (map[string]float64, error) {
	w := opt.workload
	dir, err := os.MkdirTemp(opt.workDir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(filepath.Join(dir, "replay.wal"), wal.Options{}, func([]byte) error { return nil })
	if err != nil {
		return nil, err
	}
	defer log.Close()

	tracer := obs.NewTracer(w.layerPushes)
	seq := newSequence(w, opt.seed)
	det := newDetector(cfg)
	ccfg := detectorConfig(cfg).Commute
	rng := rand.New(rand.NewSource(opt.seed))
	var (
		prevG   *graph.Graph
		prevOra commute.Oracle
		chain   uint64
		samples = map[string][]float64{}
		add     = func(name string, v float64) { samples[name] = append(samples[name], v) }
	)
	for t := 0; t < w.layerPushes; t++ {
		// The client's graph is built outside the root span: it is the
		// caller's input, not part of the push.
		clientG, err := seq.next().Graph()
		if err != nil {
			return nil, err
		}
		k := ccfg.K
		rhs := make([]float64, clientG.N()*k)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		root := tracer.Start("push")
		root.SetInt("t", int64(t))

		sp := root.StartChild(spanEncode)
		body, err := json.Marshal(service.SnapshotFromGraph(clientG))
		sp.End()
		if err != nil {
			return nil, err
		}

		sp = root.StartChild(spanDecode)
		var snap service.Snapshot
		err = json.Unmarshal(body, &snap)
		sp.End()
		if err != nil {
			return nil, err
		}

		sp = root.StartChild(spanBuild)
		g, err := snap.Graph()
		sp.End()
		if err != nil {
			return nil, err
		}

		edits := 0
		if prevG != nil {
			sp = root.StartChild(spanDiff)
			diff, err := graph.DiffSupport(prevG, g)
			sp.End()
			if err != nil {
				return nil, err
			}
			edits = len(diff)
		}

		sp = root.StartChild(spanPrecond)
		lap := solver.NewLaplacian(g, ccfg.Solver)
		sp.End()
		x := make([]float64, len(rhs))
		sp = root.StartChild(spanCold)
		lap.ProjectBlock(rhs, k)
		colStats, err := lap.SolveBlock(x, rhs, k, 1)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("cold solve: %w", err)
		}

		sp = root.StartChild(spanOracle)
		ora, err := commute.NewIncrementalFromTraced(g, prevOra, ccfg, cfg.ExactCutoff, nil)
		sp.End()
		if err != nil {
			return nil, err
		}
		emb, ok := ora.(*commute.Embedding)
		if !ok {
			return nil, fmt.Errorf("instance %d: oracle is %T, want an embedding", t, ora)
		}

		if prevG != nil {
			sp = root.StartChild(spanScore)
			core.TransitionScores(prevG, g, prevOra, ora, core.VariantCAD, false)
			sp.End()
		}

		sp = root.StartChild(spanPush)
		_, err = det.Push(g)
		sp.End()
		if err != nil {
			return nil, err
		}

		sp = root.StartChild(spanReport)
		var rep bytes.Buffer
		err = core.WriteReportJSON(&rep, det.Report())
		sp.End()
		if err != nil {
			return nil, err
		}

		sp = root.StartChild(spanWALEnc)
		frame, err := walFrame(det, g, &chain)
		sp.End()
		if err != nil {
			return nil, err
		}

		sp = root.StartChild(spanAppend)
		err = log.AppendFrame(frame)
		sp.End()
		if err != nil {
			return nil, err
		}
		root.End()
		if err := checkShape(w, t, prevG, g); err != nil {
			return nil, err
		}
		prevG, prevOra = g, ora
		if t == 0 {
			continue // the cold first instance is set-up, not a push
		}

		st := emb.Stats()
		add("service.wire_bytes_per_push", float64(len(body)))
		add("wal.bytes_per_push", float64(len(frame)))
		if t != plantAt {
			add("graph.edits_per_push", float64(edits))
		}
		iters := 0
		for _, cs := range colStats {
			iters += cs.Iterations
		}
		add("solver.cold_iters_per_col", float64(iters)/float64(k))
		add("commute.pcg_iters_per_push", float64(st.PCGIterations))
		add("commute.block_iters_per_push", float64(st.BlockIterations))
		add("commute.precond_reused_ratio", b2f(st.PrecondReused))
		add("commute.incremental_ratio", b2f(st.Mode == "incremental"))
		add("commute.base_solves_per_push", float64(st.BaseSolves))
		if st.Mode == "incremental" {
			add("commute.verify_skipped_ratio", b2f(st.VerifySkipped))
		}
	}

	traces := tracer.Traces()
	var spanMs = map[string][]float64{}
	for _, tr := range traces[1:] {
		for _, c := range tr.Children() {
			spanMs[c.Name()] = append(spanMs[c.Name()], ms(c.Duration()))
		}
	}
	if err := writeChromeTrace(opt, traces); err != nil {
		return nil, err
	}

	out := map[string]float64{
		// No incremental build means nothing to skip.
		"commute.verify_skipped_ratio": 0,
	}
	for _, name := range layerSpans {
		out[name+"_ms"] = mean(spanMs[name])
	}
	for name, xs := range samples {
		out[name] = mean(xs)
	}
	var names []string
	for _, name := range layerSpans {
		names = append(names, fmt.Sprintf("%s=%.2fms", name, out[name+"_ms"]))
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "pushbench: replay of %d warm instances: %s\n", len(traces)-1, strings.Join(names, " "))
	return out, nil
}

// walFrame builds the journal frame cadd writes for the detector's
// newest push, chaining the state digest as the journal does.
func walFrame(det *core.OnlineDetector, g *graph.Graph, chain *uint64) ([]byte, error) {
	ge := g.Edges()
	rec := &wal.PushRecord{Graph: wal.GraphData{N: int32(g.N()), Edges: make([]wal.Edge, len(ge))}}
	for i, e := range ge {
		rec.Graph.Edges[i] = wal.Edge{I: int32(e.I), J: int32(e.J), W: e.W}
	}
	trs := det.Transitions()
	rec.Instance = int64(len(trs) + det.Evicted())
	rec.Delta = det.Delta()
	rec.Evicted = int64(det.Evicted())
	if rec.Instance > 0 {
		newest := trs[len(trs)-1]
		rec.Scores = make([]wal.Score, len(newest.Scores))
		for i, sc := range newest.Scores {
			rec.Scores[i] = wal.Score{I: int32(sc.I), J: int32(sc.J), S: sc.Score}
		}
		rec.Total = newest.Total
	}
	rec.Digest = wal.StateDigest(*chain, rec.Instance, rec.Delta, rec.Evicted, rec.Total)
	*chain = rec.Digest
	payload, err := wal.EncodeRecord(rec)
	if err != nil {
		return nil, err
	}
	return wal.EncodeFrame(payload)
}

// writeChromeTrace writes the replay's spans as a Chrome trace under
// the work directory and checks that tracecheck accepts it.
func writeChromeTrace(opt options, traces []*obs.Span) error {
	path := filepath.Join(opt.workDir, "trace-"+opt.workload.name+".json")
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, traces); err != nil {
		return err
	}
	if _, err := tracecheck.CheckBytes(buf.Bytes()); err != nil {
		return fmt.Errorf("replay trace rejected by tracecheck: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pushbench: replay spans written to %s\n", path)
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
