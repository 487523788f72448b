// Package dyngraph localizes anomalous changes in time-evolving
// graphs. It is a from-scratch Go implementation of CAD (Commute-time
// based Anomaly detection in Dynamic graphs) from Sricharan & Das,
// "Localizing anomalous changes in time-evolving graphs", SIGMOD 2014,
// together with the baselines the paper compares against (ADJ, COM,
// ACT, CLC) and the substrates they need: sparse linear algebra, a
// near-linear Laplacian solver, and exact/approximate commute-time
// oracles.
//
// # The problem
//
// Given a sequence of weighted undirected graphs G_1..G_T over a fixed
// vertex set, event-detection methods can tell you *when* the graph
// structure changed anomalously; CAD additionally tells you *which
// edges* (and therefore which nodes) are responsible. Each node pair is
// scored per transition with
//
//	ΔE_t(i,j) = |A_{t+1}(i,j) − A_t(i,j)| × |c_{t+1}(i,j) − c_t(i,j)|
//
// where c_t is the commute-time distance on G_t. The product is what
// makes the score selective: a big weight change between tightly
// coupled nodes moves commute times very little (benign volume churn),
// and a big commute-time change on a pair whose weight did not change
// is collateral movement, not a cause. Only changes that are large in
// both senses — the paper's Cases 1–3 — score high.
//
// # Quick start
//
//	b0 := dyngraph.NewGraphBuilder(4)
//	b0.SetEdge(0, 1, 5)
//	b0.SetEdge(1, 2, 5)
//	b0.SetEdge(2, 3, 5)
//	g0, _ := b0.Build()
//	// ... build g1 with a structural change ...
//	seq, _ := dyngraph.NewSequence([]*dyngraph.Graph{g0, g1})
//	det := dyngraph.NewDetector(dyngraph.Options{})
//	res, _ := det.Run(seq)
//	rep := res.AutoThreshold(2) // ≈2 anomalous nodes per transition
//	for _, tr := range rep.Transitions {
//	    fmt.Println(tr.T, tr.Edges, tr.Nodes)
//	}
//
// Runnable programs live under examples/ (quickstart, insider-threat,
// collaboration, climate, streaming, serving), the experiment harness
// under cmd/cadbench, a file-driven detector under cmd/cadrun, and the
// streaming HTTP serving daemon under cmd/cadd (drive it with
// StreamClient).
package dyngraph

import (
	"fmt"
	"io"
	"net/http"

	"dyngraph/internal/act"
	"dyngraph/internal/afm"
	"dyngraph/internal/centrality"
	"dyngraph/internal/commute"
	"dyngraph/internal/core"
	"dyngraph/internal/eval"
	"dyngraph/internal/gdist"
	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
	"dyngraph/internal/service"
	"dyngraph/internal/solver"
)

// Graph is an immutable weighted undirected graph over a fixed vertex
// set 0..n-1. Build one with a GraphBuilder or FromEdges.
type Graph = graph.Graph

// GraphBuilder accumulates edges for a Graph.
type GraphBuilder = graph.Builder

// Edge is an undirected weighted edge with I < J.
type Edge = graph.Edge

// Sequence is a temporal sequence of graphs. The vertex set may grow
// across instances (see NewDynamicSequence); transitions score on the
// common vertex set of their two snapshots.
type Sequence = graph.Sequence

// ErrVertexMismatch is returned by operations that require two graphs
// on the same vertex set (e.g. EditDistance) when the counts differ.
var ErrVertexMismatch = graph.ErrVertexMismatch

// EditDistance is the weighted graph edit distance between two graphs
// on the same vertex set. It returns ErrVertexMismatch if the vertex
// counts differ.
func EditDistance(a, b *Graph) (float64, error) { return gdist.EditDistance(a, b) }

// EdgeScore is a node pair with its per-transition anomaly score ΔE.
type EdgeScore = core.EdgeScore

// Transition holds one transition's full descending score list.
type Transition = core.Transition

// Report is a thresholded anomaly report (edges and nodes per
// transition at one global δ).
type Report = core.Report

// Variant selects the scoring functional: CAD (default), or the ADJ /
// COM ablations from the paper's §3.4.
type Variant = core.Variant

// Scoring variants.
const (
	CAD = core.VariantCAD
	ADJ = core.VariantADJ
	COM = core.VariantCOM
)

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// FromEdges builds a Graph directly from an edge list (the fast path
// for generated data). labels may be nil.
func FromEdges(n int, edges []Edge, labels []string) (*Graph, error) {
	return graph.FromEdges(n, edges, labels)
}

// NewSequence validates and wraps a slice of graphs on one fixed
// vertex set.
func NewSequence(graphs []*Graph) (*Sequence, error) { return graph.NewSequence(graphs) }

// NewDynamicSequence wraps graphs whose vertex counts may grow over
// time (vertices may be added but not removed). Detectors score each
// transition on the common vertex set of its two snapshots.
func NewDynamicSequence(graphs []*Graph) (*Sequence, error) {
	return graph.NewDynamicSequence(graphs)
}

// ReadSequence parses the plain-text edge-list format ("t i j w" lines,
// optional "n <count> t <count>" header, optional "v <t> <count>"
// per-instance vertex-count directives for growing sequences) used by
// cmd/cadrun and cmd/datagen.
func ReadSequence(r io.Reader) (*Sequence, error) { return graph.ReadSequence(r) }

// WriteSequence writes a sequence in the same format.
func WriteSequence(w io.Writer, s *Sequence) error { return graph.WriteSequence(w, s) }

// Options configures a Detector.
type Options struct {
	// Variant selects CAD (default), ADJ or COM.
	Variant Variant
	// K is the commute-time embedding dimension for large graphs
	// (default 50, the paper's choice; the paper finds results
	// insensitive for K > 10).
	K int
	// Seed makes the randomized embedding reproducible.
	Seed int64
	// ExactCutoff: graphs with at most this many vertices use the exact
	// O(n³) commute-time computation instead of the embedding
	// (default 400).
	ExactCutoff int
	// Workers parallelizes the embedding build: the blocked Laplacian
	// solver shards its matrix traversals across this many goroutines
	// (default sequential). Results are identical for any value; it
	// pays off on large graphs (see docs/TUTORIAL.md §6).
	Workers int
	// SharedProjections shares one set of random projection streams
	// across all graph instances (common random numbers) instead of the
	// paper's independent per-instance projections. This reduces the
	// variance of commute-time *differences* and, in the streaming
	// detector, lets each embedding build warm-start from the previous
	// instance's — the incremental fast path for sparse streams of
	// small edits. Off by default.
	SharedProjections bool
	// IncrementalUpdates lets the streaming detector skip the solver
	// entirely when consecutive instances differ by only a few edges:
	// the embedding is corrected by a low-rank (Woodbury) update of the
	// previous one, with the warm-started solve as automatic fallback
	// whenever the edit is too large or not low-rank-correctable.
	// Requires SharedProjections; ignored by the batch Detector.
	IncrementalUpdates bool
	// IncrementalMaxEdits overrides the incremental path's edit budget
	// (default: K/4 edited edges per transition).
	IncrementalMaxEdits int
	// SparsifyTargetNNZ, when positive, caps each streamed instance at
	// roughly this many Laplacian non-zeros (≈ 2× the edge count) by
	// effective-resistance edge sampling before the solver runs —
	// trading a bounded distance-approximation error for solve time on
	// dense snapshots. The first instance is never sparsified.
	SparsifyTargetNNZ int
	// SolverTol is the embedding solver's relative residual target
	// (0 = the solver default of 1e-8). Looser serving tolerances
	// (typically 1e-5) are what give the incremental path's residual
	// certificate the headroom to skip verification solves.
	SolverTol float64
}

// commuteConfig maps the public options onto the internal embedding
// configuration (shared by the batch and streaming constructors).
func (o Options) commuteConfig() commute.Config {
	return commute.Config{
		K:                   o.K,
		Seed:                o.Seed,
		Workers:             o.Workers,
		SharedProjections:   o.SharedProjections,
		IncrementalUpdates:  o.IncrementalUpdates,
		IncrementalMaxEdits: o.IncrementalMaxEdits,
		SparsifyTargetNNZ:   o.SparsifyTargetNNZ,
		Solver:              solver.Options{Tol: o.SolverTol},
	}
}

// Detector scores the transitions of a sequence.
type Detector struct {
	inner *core.Detector
}

// NewDetector builds a detector from options.
func NewDetector(opts Options) *Detector {
	return &Detector{inner: core.New(core.Config{
		Variant:     opts.Variant,
		Commute:     opts.commuteConfig(),
		ExactCutoff: opts.ExactCutoff,
	})}
}

// Result holds the scored transitions of one run.
type Result struct {
	// Transitions has one entry per transition t → t+1, each with its
	// full descending ΔE score list.
	Transitions []Transition
	n           int
	seq         *Sequence
	oracles     []commute.Oracle
}

// Run scores every transition of seq. It returns an error for
// sequences with fewer than two instances or when the underlying
// Laplacian solves fail to converge.
func (d *Detector) Run(seq *Sequence) (*Result, error) {
	trs, oracles, err := d.inner.RunDetailed(seq)
	if err != nil {
		return nil, err
	}
	return &Result{Transitions: trs, n: seq.N(), seq: seq, oracles: oracles}, nil
}

// Threshold applies a single δ to every transition (Algorithm 1 of the
// paper): a transition's anomalous edge set is the smallest prefix of
// its score list whose removal drops the residual mass below δ.
func (r *Result) Threshold(delta float64) Report {
	return core.Threshold(r.Transitions, delta)
}

// AutoThreshold picks δ so that the total anomalous-node count across
// all transitions is about l per transition (the paper's §4.2 rule),
// then applies it. A single shared δ lets calm transitions report
// nothing and turbulent ones report more than l.
func (r *Result) AutoThreshold(l float64) Report {
	return core.Threshold(r.Transitions, core.SelectDelta(r.Transitions, l))
}

// NodeScores returns the ΔN node scores for transition index t.
func (r *Result) NodeScores(t int) []float64 {
	return r.Transitions[t].Nodes(r.n)
}

// Explanation decomposes one pair's CAD score into its weight and
// commute-time factors, with a Case() classification into the paper's
// §2.1 taxonomy.
type Explanation = core.Explanation

// Explain decomposes the score of pair (i, j) at transition t. It
// returns an error when the run kept no commute-time oracles (the ADJ
// variant) or t is out of range.
func (r *Result) Explain(t, i, j int) (Explanation, error) {
	if t < 0 || t >= len(r.Transitions) {
		return Explanation{}, fmt.Errorf("dyngraph: transition %d out of range [0,%d)", t, len(r.Transitions))
	}
	if r.oracles == nil {
		return Explanation{}, fmt.Errorf("dyngraph: Explain unavailable for the ADJ variant (no commute-time oracles)")
	}
	return core.Explain(r.seq.At(t), r.seq.At(t+1), r.oracles[t], r.oracles[t+1], i, j), nil
}

// TransitionReport is one transition's thresholded anomaly sets.
type TransitionReport = core.TransitionReport

// ReportJSON is the canonical wire form of a Report, shared by
// cmd/cadrun's -json output and the cadd server's /report endpoint;
// the two surfaces emit byte-identical documents.
type ReportJSON = core.ReportJSON

// TransitionJSON is the wire form of one transition's anomaly sets.
type TransitionJSON = core.TransitionJSON

// WriteReportJSON writes the canonical two-space-indented JSON
// encoding of rep (frozen by a golden-file test in internal/core).
func WriteReportJSON(w io.Writer, rep Report) error {
	return core.WriteReportJSON(w, rep)
}

// OnlineDetector is the streaming variant sketched in the paper's
// §4.2: push graph instances one at a time; the threshold δ is
// re-selected after every arrival over the history seen so far.
type OnlineDetector struct {
	inner *core.OnlineDetector
}

// NewOnlineDetector builds a streaming detector targeting l anomalous
// nodes per transition on average.
func NewOnlineDetector(opts Options, l float64) *OnlineDetector {
	return &OnlineDetector{inner: core.NewOnline(core.Config{
		Variant:     opts.Variant,
		Commute:     opts.commuteConfig(),
		ExactCutoff: opts.ExactCutoff,
	}, l)}
}

// Push consumes the next instance; nil report for the first one,
// otherwise the newest transition's anomalies at the current δ.
func (o *OnlineDetector) Push(g *Graph) (*TransitionReport, error) {
	return o.inner.Push(g)
}

// Report re-thresholds the whole observed history at the current δ.
func (o *OnlineDetector) Report() Report { return o.inner.Report() }

// Delta returns the current global threshold.
func (o *OnlineDetector) Delta() float64 { return o.inner.Delta() }

// OracleStats describes the commute-oracle build behind the most
// recent Push — whether it was warm-started and what it cost in PCG
// iterations versus a cold-build estimate.
type OracleStats = core.OracleStats

// LastOracleStats reports the most recent Push's oracle build.
func (o *OnlineDetector) LastOracleStats() OracleStats { return o.inner.LastOracleStats() }

// Tracer retains the most recent pipeline traces in a fixed-size ring
// buffer. Attach one to a detector with SetTracer, then read or export
// the traces with Traces / WriteTraceJSON / WriteTraceChrome.
type Tracer = obs.Tracer

// Trace is one retained pipeline trace: a root span ("push" for the
// streaming detector, "oracle" per instance for the batch one) whose
// children time each stage.
type Trace = obs.Span

// NewTracer returns a tracer retaining the most recent capacity traces
// (capacity < 1 retains one).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// SetTracer retains a per-stage trace of every subsequent Push in tr's
// ring buffer; nil disables tracing (the default, near-zero overhead).
func (o *OnlineDetector) SetTracer(tr *Tracer) { o.inner.SetTracer(tr) }

// SetTracer retains one trace per instance-oracle build of every
// subsequent Run. Tracing serializes the per-instance builds (identical
// results, ordered traces); nil restores the parallel untraced path.
func (d *Detector) SetTracer(tr *Tracer) { d.inner.SetTracer(tr) }

// WriteTraceJSON writes traces as an indented JSON array of span trees.
func WriteTraceJSON(w io.Writer, traces []*Trace) error { return obs.WriteJSON(w, traces) }

// WriteTraceChrome writes traces in the Chrome trace_event format —
// load the file in chrome://tracing or https://ui.perfetto.dev to see
// the pipeline stages on a timeline.
func WriteTraceChrome(w io.Writer, traces []*Trace) error { return obs.WriteChrome(w, traces) }

// StreamClient is a typed HTTP client for a cadd serving daemon (see
// cmd/cadd): create named detection streams, push graph snapshots with
// explicit backpressure, and read reports that are byte-identical to
// cadrun -json output. It is safe for concurrent use.
type StreamClient = service.Client

// StreamConfig configures a cadd detection stream (variant, l, oracle
// parameters, ingest-queue bound, max-history window).
type StreamConfig = service.StreamConfig

// StreamInfo is one cadd stream's status snapshot (counters, queue
// depth, current δ, residency state).
type StreamInfo = service.StreamInfo

// AdminStreamInfo is one stream's memory-governance view from the
// read-only GET /streams admin endpoint: residency state ("resident"
// or "hibernated"), estimated resident bytes, last-push time and
// arrival index. See docs/MEMORY.md.
type AdminStreamInfo = service.AdminStreamInfo

// Stream residency states, as reported by StreamInfo.State and
// AdminStreamInfo.State.
const (
	StreamStateResident   = service.StreamStateResident
	StreamStateHibernated = service.StreamStateHibernated
)

// StreamPushResult is the response to a snapshot push; sync pushes
// carry the newest transition's report.
type StreamPushResult = service.PushResult

// Snapshot is the wire form of one graph instance sent to cadd.
type Snapshot = service.Snapshot

// StreamRetryPolicy configures StreamClient.WithRetry: capped
// exponential backoff with jitter, honoring the server's Retry-After
// on 429. The zero value selects the defaults (4 attempts, 100ms
// base, 5s cap).
type StreamRetryPolicy = service.RetryPolicy

// StreamStatusError is the typed error a StreamClient returns for any
// non-2xx response: HTTP status, server message, and the parsed
// Retry-After delay when the server sent one.
type StreamStatusError = service.StatusError

// ErrStreamQueueFull is returned by StreamClient.Push when the
// server's bounded ingest queue rejected the snapshot (HTTP 429);
// callers should back off and retry — or enable
// StreamClient.WithRetry, which retries 429 transparently.
var ErrStreamQueueFull = service.ErrQueueFull

// NewStreamClient returns a client for the cadd server at baseURL
// (e.g. "http://localhost:8470"). A nil httpClient gets a dedicated
// client with a 30-second per-request timeout, never the timeout-less
// http.DefaultClient. Retries are off until WithRetry.
func NewStreamClient(baseURL string, httpClient *http.Client) *StreamClient {
	return service.NewClient(baseURL, httpClient)
}

// SnapshotFromGraph converts a graph to the wire form the cadd
// snapshot endpoint accepts.
func SnapshotFromGraph(g *Graph) Snapshot { return service.SnapshotFromGraph(g) }

// ACTResult is the Ide–Kashima activity-vector baseline's output.
type ACTResult = act.Result

// RunACT runs the ACT baseline with the given summary window w
// (w ≤ 0 means 1).
func RunACT(seq *Sequence, window int) (*ACTResult, error) {
	return act.Run(seq, act.Config{Window: window})
}

// AFMResult is the Akoglu–Faloutsos egonet-feature baseline's output.
type AFMResult = afm.Result

// RunAFM runs the AFM baseline (§3.4 of the paper) with the given
// feature-history window (w ≤ 0 means 5).
func RunAFM(seq *Sequence, window int) (*AFMResult, error) {
	return afm.Run(seq, afm.Config{Window: window})
}

// ClosenessScores runs the CLC baseline: per-transition node scores
// |cc_{t+1}(i) − cc_t(i)| from closeness centrality.
func ClosenessScores(seq *Sequence) [][]float64 {
	return centrality.NodeScores(seq, centrality.Config{})
}

// CommuteTimes returns a reusable commute-time oracle for one graph:
// exact for small graphs, the k-dimensional embedding otherwise (see
// Options.ExactCutoff semantics; pass 0 for the defaults).
func CommuteTimes(g *Graph, k int, seed int64, exactCutoff int) (interface{ Distance(i, j int) float64 }, error) {
	return commute.New(g, nil, commute.Config{K: k, Seed: seed}, exactCutoff, nil)
}

// AUC computes the area under the ROC curve of scores against binary
// labels (true = anomalous); a convenience for evaluating detector
// output against ground truth.
func AUC(scores []float64, labels []bool) (float64, error) {
	return eval.AUCFromScores(scores, labels)
}

// GraphStats summarizes one instance's shape (degrees, components,
// volume).
type GraphStats = graph.Stats

// Stats walks g once and returns its summary.
func Stats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// Ego returns vertex v's h-hop ego network: the original vertex ids
// (v first) and the induced subgraph relabeled over them — the unit of
// the paper's Figure 8(b) inspection.
func Ego(g *Graph, v, h int) (vertices []int, sub *Graph, err error) {
	return graph.Ego(g, v, h)
}

// Aggregate sums consecutive windows of width instances into one graph
// each (the paper's monthly aggregation of raw email events).
func Aggregate(s *Sequence, width int) (*Sequence, error) {
	return graph.Aggregate(s, width)
}
