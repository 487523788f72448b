package service

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"sync"
	"sync/atomic"

	"dyngraph/internal/core"
	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
)

// errQueueFull is mapped to HTTP 429 by the snapshot handler.
var errQueueFull = errors.New("service: ingest queue full")

// errStreamClosed is returned for pushes that race a delete/shutdown.
var errStreamClosed = errors.New("service: stream closed")

// errOutOfOrder is returned for an instance-indexed push that skips
// ahead of the stream's next expected arrival; mapped to HTTP 409.
var errOutOfOrder = errors.New("service: snapshot out of order")

// stream is one named detection stream: a core.OnlineDetector owned by
// a single worker goroutine fed from a bounded queue.
//
// Locking discipline (the detector is not concurrent-safe):
//
//   - detMu guards every detector access. The worker holds it across
//     Push; read handlers hold it across Report/Delta/Transitions.
//     No other goroutine ever touches det.
//   - enqMu serializes enqueue against close, so tryPush never races a
//     close(channel), and arrival indices match queue order.
type stream struct {
	id      string
	cfg     StreamConfig
	queue   *ingestQueue
	metrics *metrics
	logger  *slog.Logger
	tracer  *obs.Tracer // nil when the stream's TraceBuffer is negative
	slo     *obs.SLO    // nil when the stream has no latency objective
	oracle  string      // metrics label: "exact", "embedding" or "none"

	enqMu    sync.Mutex
	closed   bool
	ingested int64 // arrival counter, guarded by enqMu
	rejected int64 // guarded by enqMu
	lastPush int64 // unix nanos of the newest accepted snapshot, guarded by enqMu

	// sized publishes the detector's estimated resident footprint to
	// the server's budget ledger after every push (nil when the stream
	// is not governed). Called by the worker outside detMu.
	sized func(bytes int64)

	detMu     sync.Mutex
	det       *core.OnlineDetector
	processed int64
	lastErr   error

	// precond is the preconditioner kind the stream's embedding solver
	// is pinned to (a string; unset before the first embedding build),
	// stored by the worker and read by /statusz without taking detMu.
	precond atomic.Value

	// Slow-push detection state, touched only by the worker goroutine:
	// a ring of recent push latencies for the adaptive p99 threshold.
	latRing   []float64
	latNext   int
	latCount  int
	latSorted []float64 // scratch for the percentile

	// journal is the stream's durability sidecar (nil without a data
	// dir). Owned by the worker goroutine after construction.
	journal *journal

	// Vertex addressing mode, owned by the worker goroutine (seeded
	// before the worker starts). A stream is locked to one mode by its
	// first successful push: vt non-nil means external-ID mode (the
	// worker interns IDs and maps snapshots to dense indices);
	// rawLocked means raw index mode. A push in the wrong mode fails
	// like any scoring error and leaves no trace.
	vt        *graph.VertexTable
	rawLocked bool

	done chan struct{} // closed when the worker has drained and exited
}

// newStream validates cfg and starts the worker. cfg must already have
// defaults applied. j may be nil (no durability); sized may be nil
// (no budget accounting).
func newStream(id string, cfg StreamConfig, m *metrics, logger *slog.Logger, j *journal, sized func(int64)) (*stream, error) {
	coreCfg, err := cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	det := core.NewOnline(coreCfg, cfg.L)
	det.SetMaxHistory(cfg.MaxHistory)
	return startStream(id, cfg, m, logger, det, 0, j, nil, sized), nil
}

// startStream wraps an already-built detector (fresh or restored from
// a journal) in a stream and starts its worker. ingested seeds the
// arrival counter — for a recovered stream, the number of journaled
// instances, so instance-indexed re-pushes of already-scored snapshots
// are recognized as duplicates. A non-nil tracer is adopted as-is (the
// rehydration path pre-creates one so its rehydrate span lands in the
// stream's own ring); otherwise one is built from cfg.TraceBuffer.
func startStream(id string, cfg StreamConfig, m *metrics, logger *slog.Logger,
	det *core.OnlineDetector, ingested int64, j *journal, tracer *obs.Tracer, sized func(int64)) *stream {
	variant, _ := cfg.variant()
	s := &stream{
		id:       id,
		cfg:      cfg,
		queue:    newIngestQueue(cfg.QueueSize),
		metrics:  m,
		logger:   logger.With("stream", id),
		det:      det,
		ingested: ingested,
		latRing:  make([]float64, slowPushWindow),
		journal:  j,
		sized:    sized,
		done:     make(chan struct{}),
	}
	s.tracer = tracer
	if s.tracer == nil && cfg.TraceBuffer > 0 {
		s.tracer = obs.NewTracer(cfg.TraceBuffer)
	}
	// Re-establish the addressing mode of a restored stream before the
	// worker starts: a journaled ID table locks external-ID mode (and
	// is rebuilt so interning continues where it left off); journaled
	// instances without one lock raw mode.
	if ids := det.VertexIDs(); ids != nil {
		vt, err := graph.VertexTableFromIDs(ids)
		if err != nil {
			// RestoreOnline length-checked the slice; duplicates here mean
			// a corrupted journal. Refusing the table (not the stream)
			// keeps reports serving; ID pushes will fail loudly.
			s.logger.Error("vertex table rebuild failed", "err", err)
		} else {
			s.vt = vt
		}
	} else if ingested > 0 {
		s.rawLocked = true
	}
	// nil when the objective is off (SLOPushSeconds <= 0 after the
	// server default was resolved at creation/recovery).
	s.slo = obs.NewSLO(cfg.SLOPushSeconds)
	s.oracle = oracleKind(variant)
	// Seed the ledger before the worker starts so even never-pushed
	// streams are accounted (and admission pressure is visible).
	if sized != nil {
		sized(det.SizeBytes())
	}
	go s.run()
	return s
}

// oracleKind seeds the latency-histogram label, so "which oracle
// regime is slow" is visible per scrape. The vertex count is unknown
// until the first snapshot, so non-ADJ streams start "unsized" and are
// re-labeled exact/embedding once n is known.
func oracleKind(v core.Variant) string {
	if v == core.VariantADJ {
		return "none"
	}
	return "unsized"
}

// resolveOracle fixes the oracle label once the vertex count is known.
func (s *stream) resolveOracle(n int) {
	if s.oracle != "unsized" {
		return
	}
	cutoff := s.cfg.ExactCutoff
	if cutoff <= 0 {
		cutoff = 400 // commute.New's documented default
	}
	if n <= cutoff {
		s.oracle = "exact"
	} else {
		s.oracle = "embedding"
	}
}

// run is the worker: the only goroutine that Pushes into the detector.
// It exits when the queue is closed and drained — writing a final
// snapshot and closing the journal — then signals done.
func (s *stream) run() {
	defer close(s.done)
	if s.journal != nil {
		defer func() {
			s.detMu.Lock()
			st := s.det.State()
			s.detMu.Unlock()
			s.journal.closeWith(&st)
		}()
	}
	for j := range s.queue.jobs() {
		start := time.Now()
		// Resolve the job to a dense graph before taking the detector
		// lock: the vertex table is worker-owned, so ID interning and
		// edge remapping never block readers.
		g, newIDs, preLen, err := s.resolveJob(&j)
		s.detMu.Lock()
		if err == nil {
			s.resolveOracle(g.N())
		}
		// The worker owns the root span so the trace carries the serving
		// context (stream, arrival index, request id, distributed-trace
		// identity) above the detector's pipeline stages.
		root := s.tracer.Start("push")
		root.SetString("stream", s.id)
		root.SetInt("instance", j.instance)
		if j.pc.requestID != "" {
			root.SetString("request_id", j.pc.requestID)
		}
		if j.pc.traceID != "" {
			root.SetString(obs.AttrTraceID, j.pc.traceID)
			root.SetString(obs.AttrSpanID, j.pc.spanID)
			if j.pc.parentSpanID != "" {
				root.SetString(obs.AttrParentSpanID, j.pc.parentSpanID)
			}
		}
		var rep *core.TransitionReport
		if err == nil {
			rep, err = s.det.PushTraced(g, root)
		} else {
			root.SetString("error", err.Error())
		}
		if err == nil {
			if j.snap == nil {
				s.rawLocked = true
			} else if serr := s.det.SetVertexIDs(s.vt.IDs()); serr != nil {
				// Cannot happen — graphWithTable sizes the graph to the
				// table — but never let the mapping drift silently.
				s.logger.Error("vertex id attach failed", "err", serr)
			}
		}
		delta := s.det.Delta()
		ost := s.det.LastOracleStats()
		s.processed++
		if err != nil {
			s.lastErr = err
		}
		// Capture what the journal needs while the detector is still
		// locked; the writes happen after unlock so fsync latency never
		// blocks readers.
		var jdata *pushJournalData
		if s.journal != nil && err == nil {
			trs := s.det.Transitions()
			evicted := s.det.Evicted()
			jdata = &pushJournalData{
				g: g,
				// The detector's own instance index — it can trail the
				// arrival index when earlier pushes failed to score.
				instance: int64(len(trs) + evicted),
				delta:    delta,
				evicted:  int64(evicted),
				newIDs:   newIDs,
			}
			if jdata.instance > 0 {
				newest := trs[len(trs)-1]
				jdata.scores, jdata.total = newest.Scores, newest.Total
			}
			if s.journal.snapshotDue() {
				st := s.det.State()
				jdata.snap = &st
			}
		}
		// The footprint walk is O(#slices), cheap enough to run under
		// the lock it must hold anyway.
		var footprint int64
		if s.sized != nil {
			footprint = s.det.SizeBytes()
		}
		s.detMu.Unlock()
		if err != nil {
			s.rollbackFailedPush(&j, preLen)
		}
		if s.sized != nil {
			s.sized(footprint)
		}
		if jdata != nil {
			// Journal before acking the synchronous pusher: an acked
			// push is always journaled. The write gets its own stage span
			// so fsync and replication-ship latency show up in the trace
			// (and the stage histogram) next to the detector stages.
			jsp := root.StartChild("journal")
			s.journal.recordPush(jdata, jsp)
			jsp.End()
		}
		// The root ends after the journal write, so its duration matches
		// what a synchronous pusher actually waited for; ending it also
		// publishes the trace, making it visible at /debug/traces before
		// the pusher is acked.
		root.End()

		elapsed := time.Since(start).Seconds()
		s.metrics.observe("cadd_push_seconds", labels("oracle", s.oracle), elapsed)
		s.metrics.add("cadd_snapshots_processed_total", labels("stream", s.id), 1)
		if root != nil {
			// Traced pushes exemplar each stage bucket with their trace id,
			// linking the histogram back to the exact trace at /debug/traces.
			var exLabels string
			if j.pc.traceID != "" {
				exLabels = `trace_id="` + j.pc.traceID + `"`
			}
			for _, st := range root.Children() {
				s.metrics.observeExemplar("cadd_push_stage_seconds",
					labels("stream", s.id, "stage", st.Name()), st.Duration().Seconds(), exLabels)
			}
		}
		s.slo.Observe(elapsed)
		s.noteLatency(elapsed, j, root)
		if err != nil {
			s.metrics.add("cadd_push_errors_total", labels("stream", s.id), 1)
			s.logger.Error("push failed", "instance", j.instance, "request_id", j.pc.requestID, "err", err)
		}
		if ost.Built {
			mode := ost.Mode
			if mode == "" {
				// Older detector states may predate the mode field;
				// reconstruct the coarse warm/cold split.
				mode = "cold"
				if ost.Warm {
					mode = "warm"
				}
			}
			s.metrics.add("cadd_oracle_builds_total", labels("stream", s.id, "mode", mode), 1)
			if ost.Kind == "embedding" {
				// The cold-estimate counter accumulates what the same
				// stream would have cost without warm starts, so
				// iterations_total / cold_estimate_total is the live
				// saving ratio of the incremental pipeline.
				s.metrics.add("cadd_pcg_iterations_total", labels("stream", s.id), float64(ost.PCGIterations))
				s.metrics.add("cadd_pcg_block_iterations_total", labels("stream", s.id), float64(ost.BlockIterations))
				s.metrics.add("cadd_pcg_cold_estimate_total", labels("stream", s.id), float64(ost.ColdEstimateIterations))
				s.precond.Store(ost.Precond)
				if ost.Probed {
					s.metrics.add("cadd_precond_probes_total", labels("stream", s.id, "pick", ost.Precond), 1)
				}
				if ost.SparsifiedEdges > 0 {
					s.metrics.add("cadd_sparsified_edges_total", labels("stream", s.id), float64(ost.SparsifiedEdges))
				}
			}
		}
		if j.done != nil {
			j.done <- jobResult{report: rep, delta: delta, err: err}
		}
	}
}

// resolveJob turns a queued job into the dense graph to push. Raw jobs
// carry a prebuilt graph; external-ID jobs are interned into the
// worker-owned vertex table and remapped here. preLen is the table
// length before this job's interns — the rollback point if the push
// later fails. A job in the wrong mode for the stream resolves to an
// error, which the worker treats exactly like a scoring failure.
func (s *stream) resolveJob(j *job) (g *graph.Graph, newIDs []string, preLen int, err error) {
	if j.snap == nil {
		if s.vt != nil {
			return nil, nil, 0, fmt.Errorf("service: stream ingests external-ID snapshots; raw index snapshot refused")
		}
		return j.g, nil, 0, nil
	}
	if s.rawLocked {
		return nil, nil, 0, fmt.Errorf("service: stream ingests raw index snapshots; external-ID snapshot refused")
	}
	if s.vt == nil {
		s.vt = graph.NewVertexTable()
	}
	preLen = s.vt.Len()
	g, newIDs, err = j.snap.graphWithTable(s.vt)
	if err != nil {
		return nil, nil, preLen, err
	}
	return g, newIDs, preLen, nil
}

// rollbackFailedPush undoes the side effects of a push that failed to
// score, so a rejected snapshot leaves no trace: IDs interned for it
// are forgotten (jobs resolve in queue order, so truncation only ever
// discards this job's interns) and, when no later arrival has been
// accepted meanwhile, the arrival-index cursor steps back so a
// corrected re-push at the same instance index succeeds instead of
// being mistaken for a duplicate.
func (s *stream) rollbackFailedPush(j *job, preLen int) {
	if j.snap != nil && s.vt != nil {
		s.vt.Truncate(preLen)
		if s.vt.Len() == 0 {
			// The failed push was the one that would have locked ID mode;
			// unlock it again.
			s.vt = nil
		}
	}
	s.enqMu.Lock()
	if s.ingested == j.instance+1 {
		s.ingested--
	}
	s.enqMu.Unlock()
}

// slowPushWindow is the latency-ring size behind the adaptive
// slow-push threshold; slowPushMinSamples gates it so the first few
// (cold, naturally slow) pushes never alarm.
const (
	slowPushWindow     = 64
	slowPushMinSamples = 16
	slowPushFloor      = 0.005 // seconds; below this nothing is "slow"
)

// noteLatency records one push latency and emits the slow-push WARN —
// with the per-stage breakdown inlined from the trace — when the
// configured (or adaptive) threshold is crossed. Worker goroutine only.
func (s *stream) noteLatency(elapsed float64, j job, root *obs.Span) {
	threshold := s.cfg.SlowPushSeconds
	if threshold < 0 {
		return
	}
	if threshold == 0 { // adaptive: ≈1.5× the recent p99, floored
		threshold = s.adaptiveThreshold()
	}
	crossed := threshold > 0 && elapsed > threshold

	s.latRing[s.latNext] = elapsed
	s.latNext = (s.latNext + 1) % len(s.latRing)
	if s.latCount < len(s.latRing) {
		s.latCount++
	}

	if !crossed {
		return
	}
	s.metrics.add("cadd_slow_pushes_total", labels("stream", s.id), 1)
	args := []any{
		"instance", j.instance,
		"request_id", j.pc.requestID,
		"seconds", elapsed,
		"threshold_seconds", threshold,
	}
	if root != nil {
		for _, st := range root.Children() {
			args = append(args, "stage_"+st.Name()+"_seconds", st.Duration().Seconds())
		}
	}
	s.logger.Warn("slow push", args...)
}

// adaptiveThreshold returns 1.5× the p99 of the recent latency ring, or
// 0 (disabled) until enough samples have accumulated.
func (s *stream) adaptiveThreshold() float64 {
	if s.latCount < slowPushMinSamples {
		return 0
	}
	s.latSorted = append(s.latSorted[:0], s.latRing[:s.latCount]...)
	sort.Float64s(s.latSorted)
	idx := (99*s.latCount + 99) / 100 // ceil(0.99·n)
	if idx > s.latCount {
		idx = s.latCount
	}
	t := 1.5 * s.latSorted[idx-1]
	if t < slowPushFloor {
		t = slowPushFloor
	}
	return t
}

// traces returns the stream's retained push traces, oldest first (nil
// when tracing is disabled).
func (s *stream) traces() []*obs.Span {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.Traces()
}

// traceDropped is the number of traces evicted from the ring so far.
func (s *stream) traceDropped() uint64 {
	if s.tracer == nil {
		return 0
	}
	return s.tracer.Dropped()
}

// enqueue accepts one snapshot — either a prebuilt dense graph (raw
// index mode) or an external-ID Snapshot the worker will map (snap
// non-nil; g must then be nil). Synchronous pushes return the worker's
// result; asynchronous ones return immediately with the assigned
// arrival index. errQueueFull means the bounded queue rejected it.
//
// expected is the client-asserted arrival index (-1 when unasserted),
// the idempotency handle for at-least-once delivery: an index below
// the next expected arrival is a re-push of an already-accepted
// snapshot and is acked as a duplicate without re-scoring; one above
// it is a gap and is refused with errOutOfOrder. A push that fails to
// score rolls the cursor back (rollbackFailedPush), so the failed
// index is re-usable by a corrected snapshot.
func (s *stream) enqueue(g *graph.Graph, snap *Snapshot, sync bool, pc pushContext, expected int64) (PushResult, error) {
	j := job{g: g, snap: snap, pc: pc}
	if sync {
		j.done = make(chan jobResult, 1)
	}

	s.enqMu.Lock()
	if s.closed {
		s.enqMu.Unlock()
		return PushResult{}, errStreamClosed
	}
	if expected >= 0 {
		switch {
		case expected < s.ingested:
			s.enqMu.Unlock()
			s.metrics.add("cadd_duplicate_pushes_total", labels("stream", s.id), 1)
			return PushResult{Stream: s.id, Instance: int(expected), Duplicate: true}, nil
		case expected > s.ingested:
			s.enqMu.Unlock()
			return PushResult{}, fmt.Errorf("%w: instance %d pushed, next expected is %d", errOutOfOrder, expected, s.ingested)
		}
	}
	j.instance = s.ingested
	if !s.queue.tryPush(j) {
		s.rejected++
		s.enqMu.Unlock()
		s.metrics.add("cadd_snapshots_rejected_total", labels("stream", s.id), 1)
		return PushResult{}, errQueueFull
	}
	s.ingested++
	s.lastPush = time.Now().UnixNano()
	s.enqMu.Unlock()
	s.metrics.add("cadd_snapshots_ingested_total", labels("stream", s.id), 1)

	res := PushResult{Stream: s.id, Instance: int(j.instance)}
	if !sync {
		res.Queued = true
		return res, nil
	}
	out := <-j.done
	if out.err != nil {
		return PushResult{}, fmt.Errorf("instance %d: %w", j.instance, out.err)
	}
	if out.report != nil {
		jt := out.report.JSON()
		res.Report = &jt
	}
	res.Delta = out.delta
	return res, nil
}

// report returns the re-thresholded retained history.
func (s *stream) report() core.Report {
	s.detMu.Lock()
	defer s.detMu.Unlock()
	return s.det.Report()
}

// transition returns transition t's anomaly sets at the current δ;
// false when t is not in the retained history.
func (s *stream) transition(t int) (core.TransitionReport, bool) {
	s.detMu.Lock()
	defer s.detMu.Unlock()
	for _, tr := range s.det.Transitions() {
		if tr.T == t {
			edges := core.AnomalousEdges(tr.Scores, s.det.Delta())
			return core.TransitionReport{T: tr.T, Edges: edges, Nodes: core.AnomalousNodes(edges)}, true
		}
	}
	return core.TransitionReport{}, false
}

// info snapshots the stream's status.
func (s *stream) info() StreamInfo {
	s.enqMu.Lock()
	ingested, rejected := s.ingested, s.rejected
	s.enqMu.Unlock()
	s.detMu.Lock()
	processed := s.processed
	delta := s.det.Delta()
	transitions := len(s.det.Transitions())
	evicted := s.det.Evicted()
	lastErr := ""
	if s.lastErr != nil {
		lastErr = s.lastErr.Error()
	}
	s.detMu.Unlock()
	return StreamInfo{
		ID:          s.id,
		Config:      s.cfg,
		Ingested:    ingested,
		Processed:   processed,
		Rejected:    rejected,
		QueueDepth:  s.queue.depth(),
		Transitions: transitions,
		Evicted:     evicted,
		Delta:       delta,
		LastError:   lastErr,
	}
}

// lastPushTime returns the wall-clock time of the newest accepted
// snapshot (zero when the stream has never been pushed).
func (s *stream) lastPushTime() time.Time {
	s.enqMu.Lock()
	defer s.enqMu.Unlock()
	if s.lastPush == 0 {
		return time.Time{}
	}
	return time.Unix(0, s.lastPush)
}

// setLastPush seeds the last-push clock on a rehydrated stream from
// its stub, so idle-based hibernation measures from the real last
// arrival rather than from the rehydration.
func (s *stream) setLastPush(t time.Time) {
	if t.IsZero() {
		return
	}
	s.enqMu.Lock()
	s.lastPush = t.UnixNano()
	s.enqMu.Unlock()
}

// ingestedCount returns the arrival counter.
func (s *stream) ingestedCount() int64 {
	s.enqMu.Lock()
	defer s.enqMu.Unlock()
	return s.ingested
}

// close stops intake; the worker drains buffered snapshots and exits.
// Safe to call more than once.
func (s *stream) close() {
	s.enqMu.Lock()
	if !s.closed {
		s.closed = true
		s.queue.close()
	}
	s.enqMu.Unlock()
}

// drained blocks until the worker has exited or ctx-style cancellation
// via the returned channel select at the call site.
func (s *stream) drained() <-chan struct{} { return s.done }
