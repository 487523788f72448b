package core

import (
	"fmt"

	"dyngraph/internal/commute"
	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
)

// OnlineDetector is the streaming variant sketched in the paper's §4.2:
// graph instances arrive one at a time, scores are aggregated over the
// transitions seen so far, and the threshold δ is re-selected after
// every arrival so that the anomalous-node budget (l per transition on
// average) always refers to the observed history.
//
// The commute-time oracle of the previous instance is cached, so each
// Push costs one oracle build plus one transition scoring — the same
// asymptotic work per instance as the batch Detector. With
// Config.Commute.SharedProjections enabled, the oracle build itself
// becomes incremental: each new embedding reuses the previous one's
// preconditioner setup and warm-starts every Laplacian solve from the
// previous solution, so a Push on a sparse stream that changed a few
// edges costs a small fraction of a cold build (see LastOracleStats
// for the measured saving). Cold builds still happen for the first
// instance and whenever reuse would be unsound.
//
// An OnlineDetector is not safe for concurrent use.
type OnlineDetector struct {
	cfg        Config
	l          float64
	n          int // current vertex count: non-decreasing, set by each instance
	t          int // instances consumed
	prev       *graph.Graph
	prevOra    commute.Oracle
	history    []Transition
	delta      float64
	maxHistory int
	evicted    int

	// ids optionally maps dense vertex indices to stable external IDs
	// (streams ingesting external-ID snapshots set it after each push;
	// raw index streams leave it nil). Purely presentational: scoring
	// never consults it. len(ids) == n when set.
	ids []string

	// δ re-selection cache: one precomputed step function per retained
	// transition (aligned with history), plus reusable scratch, so the
	// per-Push SelectDelta over the whole window allocates nothing.
	steps  []deltaSteps
	breaks []float64
	marks  nodeMarker

	// Incremental-build accounting for LastOracleStats.
	lastStats      OracleStats
	coldIterPerRow float64 // per-row PCG cost of the latest cold embedding build

	// tracer, when set, gives every Push its own retained trace; nil
	// (the default) disables tracing at near-zero cost. Callers that
	// own the root span (the serving layer) use PushTraced instead.
	tracer *obs.Tracer
}

// OracleStats describes the commute-oracle build behind the most
// recent Push — the serving layer's window into how much work the
// incremental pipeline is saving.
type OracleStats struct {
	// Built is false when no oracle was needed (the ADJ variant).
	Built bool
	// Kind is "exact" (small-n pseudoinverse) or "embedding".
	Kind string
	// Warm is true when the embedding was rebuilt incrementally from
	// the previous instance's (SharedProjections streams only).
	Warm bool
	// Mode is the build strategy the commute package chose: "cold",
	// "warm" or "incremental" (the low-rank Woodbury correction that
	// skips the solver entirely on small edits); "exact" for the
	// small-n pseudoinverse oracle, "" when no oracle was built.
	Mode string
	// BaseSolves counts the per-edited-edge base solves the incremental
	// path performed on the previous operator (0 on other modes).
	BaseSolves int
	// VerifySkipped is true when the incremental build's residual
	// certificate proved the corrected block met tolerance and the
	// verification solve was skipped (bit-identical to running it).
	VerifySkipped bool
	// SparsifiedEdges counts edges dropped by the effective-resistance
	// pre-solver cap (Commute.SparsifyTargetNNZ) before this build.
	SparsifiedEdges int
	// PrecondReused is true when the solver preconditioner was shared
	// or patched rather than rebuilt.
	PrecondReused bool
	// Precond is the embedding solver's preconditioner kind ("tree",
	// "jacobi" or "none") — the stream's pin; "" for exact oracles.
	Precond string
	// Probed is true when this build picked the preconditioner by
	// probing rather than inheriting the pin.
	Probed bool
	// ProbeIterations is the probe's PCG iteration count, kept out of
	// PCGIterations.
	ProbeIterations int
	// PCGIterations is the total PCG iteration count the build
	// performed across its k solves (0 for exact oracles).
	PCGIterations int
	// BlockIterations is the number of blocked-PCG iterations — matrix
	// traversals — the build performed (the max per-column count; the
	// blocked solver serves all k columns per traversal). The ratio
	// PCGIterations / BlockIterations is the SpMM amortization the
	// block path achieved.
	BlockIterations int
	// ColdEstimateIterations estimates what a cold build of the same
	// oracle would have cost, extrapolated from the per-row cost of
	// this stream's most recent cold build. For cold builds it equals
	// PCGIterations, so accumulating both counters and taking the
	// ratio gives the stream's overall saving.
	ColdEstimateIterations int
}

// NewOnline returns a streaming detector targeting l anomalous nodes
// per transition on average.
func NewOnline(cfg Config, l float64) *OnlineDetector {
	return &OnlineDetector{cfg: cfg, l: l}
}

// SetMaxHistory bounds the retained transition history to the most
// recent m transitions; m <= 0 (the default) retains everything.
// Without a bound a long-lived stream's history — and the per-push
// δ re-selection over it — grows without limit, so any server wrapping
// an OnlineDetector should set a window.
//
// δ semantics under a window: after eviction the threshold is
// re-selected so that the anomalous-node budget l·|window| refers to
// the retained transitions only. The detector forgets how calm or
// turbulent evicted history was, so δ tracks the recent regime — a
// long-calm stream entering a turbulent phase raises δ faster than the
// unbounded detector would, and vice versa. Report and Transitions
// likewise cover only the retained window; Evicted counts what was
// dropped. Scoring is unaffected: ΔE for a new transition never
// depends on history.
//
// Lowering m takes effect at the next Push; it never truncates
// retroactively on its own.
func (o *OnlineDetector) SetMaxHistory(m int) { o.maxHistory = m }

// Evicted returns the number of transitions dropped from the front of
// the history by the max-history window.
func (o *OnlineDetector) Evicted() int { return o.evicted }

// LastOracleStats reports the oracle build performed by the most
// recent Push (the zero value before any Push, or when the last Push
// failed before building one).
func (o *OnlineDetector) LastOracleStats() OracleStats { return o.lastStats }

// SetTracer gives every subsequent Push its own trace, retained in
// tr's ring buffer: a root "push" span with per-stage children (see
// PushTraced for the stage vocabulary). A nil tracer (the default)
// disables tracing; the instrumented path then costs only nil checks —
// see BenchmarkOnlinePushColdVsWarm, which runs untraced.
func (o *OnlineDetector) SetTracer(tr *obs.Tracer) { o.tracer = tr }

// buildOracle constructs the commute oracle for instance t,
// incrementally from prev when the configuration allows it, and
// returns the build's stats (also tracking the stream's cold per-row
// PCG cost for later warm-saving estimates).
func (o *OnlineDetector) buildOracle(g *graph.Graph, t int, prev commute.Oracle, sp *obs.Span) (commute.Oracle, OracleStats, error) {
	cfg := o.cfg.Commute
	// Decorrelate projections across instances (the paper's setup) —
	// unless projections are deliberately shared so that consecutive
	// embeddings can warm-start each other.
	if !cfg.SharedProjections {
		cfg.Seed = cfg.Seed*1000003 + int64(t)
	}
	oracle, err := commute.New(g, prev, cfg, o.cfg.ExactCutoff, sp)
	if err != nil {
		return nil, OracleStats{}, err
	}
	st := OracleStats{Built: true, Kind: "exact", Mode: "exact"}
	if emb, ok := oracle.(*commute.Embedding); ok {
		bs := emb.Stats()
		st.Kind = "embedding"
		st.Warm = bs.Warm
		st.Mode = bs.Mode
		st.BaseSolves = bs.BaseSolves
		st.VerifySkipped = bs.VerifySkipped
		st.SparsifiedEdges = bs.SparsifiedEdges
		st.PrecondReused = bs.PrecondReused
		st.Precond = bs.Precond
		st.Probed = bs.Probed
		st.ProbeIterations = bs.ProbeIterations
		st.PCGIterations = bs.PCGIterations
		st.BlockIterations = bs.BlockIterations
		if bs.Warm {
			st.ColdEstimateIterations = int(o.coldIterPerRow*float64(bs.Rows) + 0.5)
		} else {
			if bs.Rows > 0 {
				o.coldIterPerRow = float64(bs.PCGIterations) / float64(bs.Rows)
			}
			st.ColdEstimateIterations = bs.PCGIterations
		}
	}
	return oracle, st, nil
}

// Push consumes the next graph instance. For the first instance it
// returns (nil, nil); afterwards it returns the newest transition's
// anomaly report at the freshly re-selected global δ. Earlier
// transitions' reports may change as δ moves; call Report for a
// re-thresholded view of the whole history.
//
// With a tracer set (SetTracer), every Push publishes one trace: a
// root "push" span with the PushTraced stage children.
func (o *OnlineDetector) Push(g *graph.Graph) (*TransitionReport, error) {
	root := o.tracer.Start("push")
	rep, err := o.PushTraced(g, root)
	root.End()
	return rep, err
}

// PushTraced is Push with pipeline stage spans emitted as children of
// parent — the serving layer's entry point, which owns the root span
// so it can attach stream/request attributes before retaining it. The
// stages are:
//
//	oracle       commute-oracle build (kind, warm/cold, PCG iteration
//	             counts; nested projection/precond/pcg spans from the
//	             commute and solver packages)
//	score        transition scoring (ΔE over the changed support)
//	delta_select exact re-selection of the global threshold δ over the
//	             retained history, including window eviction
//	threshold    the newest transition's anomaly sets at the fresh δ
//
// The four stages tile the Push body, so their durations sum to ≈ the
// end-to-end push latency (the first instance emits only "oracle" —
// there is no transition to score yet). A nil parent disables all
// spans at the cost of nil checks.
func (o *OnlineDetector) PushTraced(g *graph.Graph, parent *obs.Span) (*TransitionReport, error) {
	if g == nil {
		return nil, fmt.Errorf("core: Push(nil)")
	}
	if g.N() < o.n {
		// Growth is fine — dense indices are stable, scoring restricts
		// itself to the common vertex set, and the embedding extends its
		// retained rows — but a shrinking count would silently re-key
		// vertices, so it is refused.
		return nil, fmt.Errorf("core: instance %d has %d vertices, want at least %d (vertices may be added but not removed)", o.t, g.N(), o.n)
	}
	o.n = g.N()
	parent.SetInt("t", int64(o.t))
	parent.SetInt("n", int64(g.N()))

	var oracle commute.Oracle
	if o.cfg.Variant != VariantADJ {
		sp := parent.StartChild("oracle")
		// A restored detector (RestoreOnline) carries the previous graph
		// but not its oracle; rebuild it before the new instance's build
		// so scoring sees both sides of the transition. The rebuild is
		// cold — there is nothing earlier to warm-start from — and uses
		// the previous instance's derived seed, so for exact and
		// per-instance-seeded regimes it is bit-identical to the oracle
		// the crashed process held.
		if o.t > 0 && o.prevOra == nil && o.prev != nil {
			sp.SetBool("restored_prev", true)
			po, _, err := o.buildOracle(o.prev, o.t-1, nil, sp)
			if err != nil {
				sp.SetString("error", err.Error())
				sp.End()
				o.lastStats = OracleStats{}
				return nil, fmt.Errorf("core: restored oracle for instance %d: %w", o.t-1, err)
			}
			o.prevOra = po
		}
		var err error
		oracle, o.lastStats, err = o.buildOracle(g, o.t, o.prevOra, sp)
		if err != nil {
			sp.SetString("error", err.Error())
			sp.End()
			o.lastStats = OracleStats{}
			return nil, fmt.Errorf("core: oracle for instance %d: %w", o.t, err)
		}
		sp.SetString("kind", o.lastStats.Kind)
		sp.SetString("mode", o.lastStats.Mode)
		sp.SetBool("warm", o.lastStats.Warm)
		sp.SetBool("precond_reused", o.lastStats.PrecondReused)
		sp.SetInt("pcg_iterations", int64(o.lastStats.PCGIterations))
		sp.SetInt("block_iterations", int64(o.lastStats.BlockIterations))
		if o.lastStats.BaseSolves > 0 {
			sp.SetInt("base_solves", int64(o.lastStats.BaseSolves))
			sp.SetBool("verify_skipped", o.lastStats.VerifySkipped)
		}
		if o.lastStats.SparsifiedEdges > 0 {
			sp.SetInt("sparsified_edges", int64(o.lastStats.SparsifiedEdges))
		}
		sp.End()
	} else {
		o.lastStats = OracleStats{}
	}

	defer func() {
		o.prev, o.prevOra = g, oracle
		o.t++
	}()

	if o.t == 0 {
		return nil, nil
	}

	sp := parent.StartChild("score")
	scores := TransitionScores(o.prev, g, o.prevOra, oracle, o.cfg.Variant, o.cfg.comAllPairs(o.n))
	tr := Transition{T: o.t - 1, Scores: scores, Total: TotalScore(scores)}
	o.history = append(o.history, tr)
	sp.SetInt("scored_pairs", int64(len(scores)))
	sp.End()

	sp = parent.StartChild("delta_select")
	o.steps = append(o.steps, newDeltaSteps(tr, &o.marks))
	if o.maxHistory > 0 && len(o.history) > o.maxHistory {
		// Evict the oldest transitions in place, zeroing the vacated
		// tail so their score slices are released rather than pinned by
		// the backing array. The δ step-function cache evicts in step.
		drop := len(o.history) - o.maxHistory
		keep := copy(o.history, o.history[drop:])
		for i := keep; i < len(o.history); i++ {
			o.history[i] = Transition{}
		}
		o.history = o.history[:keep]
		copy(o.steps, o.steps[drop:])
		for i := keep; i < len(o.steps); i++ {
			o.steps[i] = deltaSteps{}
		}
		o.steps = o.steps[:keep]
		o.evicted += drop
	}
	o.breaks = o.breaks[:0]
	for i := range o.steps {
		o.breaks = append(o.breaks, o.steps[i].residuals...)
	}
	o.delta = selectDeltaFromSteps(o.steps, o.breaks, o.l)
	sp.SetFloat("delta", o.delta)
	sp.SetInt("history", int64(len(o.history)))
	sp.End()

	sp = parent.StartChild("threshold")
	edges := AnomalousEdges(scores, o.delta)
	rep := &TransitionReport{T: o.t - 1, Edges: edges, Nodes: AnomalousNodes(edges)}
	sp.SetInt("edges", int64(len(edges)))
	sp.SetInt("nodes", int64(len(rep.Nodes)))
	sp.End()
	return rep, nil
}

// Delta returns the current global threshold (0 until the second
// instance arrives).
func (o *OnlineDetector) Delta() float64 { return o.delta }

// SetVertexIDs attaches the external-ID slice for the current vertex
// set (dense-index order). It returns an error if the length does not
// match the consumed instances' vertex count; nil clears the mapping.
func (o *OnlineDetector) SetVertexIDs(ids []string) error {
	if ids == nil {
		o.ids = nil
		return nil
	}
	if len(ids) != o.n {
		return fmt.Errorf("core: SetVertexIDs got %d ids, want %d", len(ids), o.n)
	}
	o.ids = append(o.ids[:0], ids...)
	return nil
}

// VertexIDs returns the external-ID slice (nil for raw index streams).
// The slice must not be modified.
func (o *OnlineDetector) VertexIDs() []string { return o.ids }

// Transitions returns the scored history retained under the
// max-history window (all of it by default). The slice must not be
// modified.
func (o *OnlineDetector) Transitions() []Transition { return o.history }

// Report re-thresholds the retained history at the current δ — the
// batch-equivalent view of the stream consumed so far (of the window
// only, when SetMaxHistory bounds it).
func (o *OnlineDetector) Report() Report {
	rep := Threshold(o.history, o.delta)
	if o.ids != nil {
		rep.VertexIDs = append([]string(nil), o.ids...)
	}
	return rep
}
