package core

import (
	"fmt"
	"runtime"
	"sync"

	"dyngraph/internal/commute"
	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
)

// Config configures a Detector.
type Config struct {
	// Variant selects CAD (default), ADJ or COM.
	Variant Variant
	// Commute configures the approximate commute-time oracle
	// (embedding dimension k, seed, solver options).
	Commute commute.Config
	// ExactCutoff: graphs with at most this many vertices use the exact
	// O(n³) pseudoinverse oracle instead of the embedding, as the paper
	// does for the Enron graphs. Zero selects the default (400).
	ExactCutoff int
	// COMAllPairs scores the COM variant on all n² pairs instead of
	// only the changed-adjacency support. Defaults to true for graphs
	// with at most 4096 vertices when the variant is COM.
	COMAllPairs *bool
}

func (c Config) comAllPairs(n int) bool {
	if c.COMAllPairs != nil {
		return *c.COMAllPairs
	}
	return n <= 4096
}

// Transition holds one transition's scoring output.
type Transition struct {
	// T is the transition index: the move from instance T to T+1
	// (0-based instances).
	T int
	// Scores are the non-zero edge scores, sorted descending.
	Scores []EdgeScore
	// Total is Σ ΔE over the transition.
	Total float64
}

// Nodes returns the per-node ΔN scores for this transition.
func (tr Transition) Nodes(n int) []float64 { return NodeScores(n, tr.Scores) }

// Detector runs a variant over a temporal graph sequence. The zero
// value is not usable; construct with New.
type Detector struct {
	cfg    Config
	tracer *obs.Tracer
}

// New returns a Detector with the given configuration.
func New(cfg Config) *Detector { return &Detector{cfg: cfg} }

// SetTracer retains one "oracle" trace per graph instance of every
// subsequent Run (attribute "t" carries the instance index; children
// are the commute/solver build spans). Setting a tracer serializes the
// per-instance oracle builds so traces publish in instance order; nil
// (the default) keeps the parallel build path and disables tracing.
func (d *Detector) SetTracer(tr *obs.Tracer) { d.tracer = tr }

// Run scores every transition of seq. Oracles are built once per graph
// instance (not per transition), matching Algorithm 1's structure of a
// commute-time pass followed by a scoring pass. ADJ builds no oracles.
func (d *Detector) Run(seq *graph.Sequence) ([]Transition, error) {
	trs, _, err := d.RunDetailed(seq)
	return trs, err
}

// RunDetailed is Run plus the per-instance commute-time oracles (nil
// for the ADJ variant), enabling post-hoc Explain calls without
// recomputation.
func (d *Detector) RunDetailed(seq *graph.Sequence) ([]Transition, []commute.Oracle, error) {
	if seq.T() < 2 {
		return nil, nil, fmt.Errorf("core: sequence needs at least 2 instances, got %d", seq.T())
	}
	var oracles []commute.Oracle
	if d.cfg.Variant != VariantADJ {
		oracles = make([]commute.Oracle, seq.T())
		// Oracle builds are independent per instance, so they
		// parallelize across the sequence — unless the embedding is
		// already parallelizing its own solves (Commute.Workers > 1),
		// in which case stacking a second level would just oversubscribe
		// the cores. Results are identical either way: each instance's
		// oracle is a pure function of (graph, derived seed).
		workers := runtime.NumCPU()
		if workers > seq.T() {
			workers = seq.T()
		}
		if d.cfg.Commute.Workers > 1 {
			workers = 1
		}
		// Traced runs build sequentially so each instance's trace
		// publishes in order and spans never interleave across builds.
		if d.tracer != nil {
			workers = 1
		}
		buildOracle := func(t int) error {
			cfg := d.cfg.Commute
			// Decorrelate projections across instances while keeping
			// the whole run reproducible from the one configured seed —
			// the paper's independent-projections setup. Under
			// SharedProjections one seed is deliberately shared across
			// instances (common random numbers), so the batch run
			// scores the same systems the warm streaming path solves.
			if !cfg.SharedProjections {
				cfg.Seed = cfg.Seed*1000003 + int64(t)
			}
			root := d.tracer.Start("oracle")
			root.SetInt("t", int64(t))
			o, err := commute.New(seq.At(t), nil, cfg, d.cfg.ExactCutoff, root)
			root.End()
			if err != nil {
				return fmt.Errorf("core: oracle for instance %d: %w", t, err)
			}
			oracles[t] = o
			return nil
		}
		if workers <= 1 {
			for t := 0; t < seq.T(); t++ {
				if err := buildOracle(t); err != nil {
					return nil, nil, err
				}
			}
		} else {
			jobs := make(chan int, seq.T())
			for t := 0; t < seq.T(); t++ {
				jobs <- t
			}
			close(jobs)
			errs := make(chan error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for t := range jobs {
						if err := buildOracle(t); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-errs:
				return nil, nil, err
			default:
			}
		}
	}
	out := make([]Transition, seq.T()-1)
	for t := 0; t < seq.T()-1; t++ {
		var og, oh commute.Oracle
		if oracles != nil {
			og, oh = oracles[t], oracles[t+1]
		}
		// allPairs follows the newer snapshot's vertex count, matching
		// what OnlineDetector evaluates at the equivalent push.
		allPairs := d.cfg.comAllPairs(seq.At(t + 1).N())
		scores := TransitionScores(seq.At(t), seq.At(t+1), og, oh, d.cfg.Variant, allPairs)
		out[t] = Transition{T: t, Scores: scores, Total: TotalScore(scores)}
	}
	return out, oracles, nil
}

// Report is the thresholded output of a run: per-transition anomalous
// edges and nodes at a single global δ.
type Report struct {
	Delta       float64
	Transitions []TransitionReport
	// VertexIDs optionally maps dense vertex indices to stable external
	// IDs (set by streams ingesting external-ID snapshots; nil for raw
	// index inputs, including every batch run).
	VertexIDs []string
}

// TransitionReport is one transition's anomaly sets.
type TransitionReport struct {
	T     int
	Edges []EdgeScore
	Nodes []int
}

// Anomalous reports whether the transition produced a non-empty
// anomalous edge set.
func (tr TransitionReport) Anomalous() bool { return len(tr.Edges) > 0 }

// Threshold applies a single δ to every transition, per Algorithm 1.
func Threshold(transitions []Transition, delta float64) Report {
	rep := Report{Delta: delta, Transitions: make([]TransitionReport, len(transitions))}
	for i, tr := range transitions {
		edges := AnomalousEdges(tr.Scores, delta)
		rep.Transitions[i] = TransitionReport{T: tr.T, Edges: edges, Nodes: AnomalousNodes(edges)}
	}
	return rep
}

// TopLPerTransition is the thresholding alternative the paper's §4.2
// argues *against*: take each transition's highest-scoring edges until
// l nodes are implicated, independently per transition. It forces ≈l
// alarms even on perfectly calm transitions — the failure mode the
// shared global δ avoids — and exists here so that contrast is testable
// (see TestGlobalDeltaBeatsTopLOnCalmStreams).
func TopLPerTransition(transitions []Transition, l int) Report {
	rep := Report{Delta: 0, Transitions: make([]TransitionReport, len(transitions))}
	for i, tr := range transitions {
		var edges []EdgeScore
		seen := make(map[int]struct{})
		for _, s := range tr.Scores {
			if len(seen) >= l {
				break
			}
			edges = append(edges, s)
			seen[s.I] = struct{}{}
			seen[s.J] = struct{}{}
		}
		rep.Transitions[i] = TransitionReport{T: tr.T, Edges: edges, Nodes: AnomalousNodes(edges)}
	}
	return rep
}

// totalNodesAt counts Σ_t |V_t| at threshold delta.
func totalNodesAt(transitions []Transition, delta float64) int {
	var total int
	for _, tr := range transitions {
		total += len(AnomalousNodes(AnomalousEdges(tr.Scores, delta)))
	}
	return total
}

// SelectDelta automates the paper's §4.2 threshold choice: pick a
// single global δ so that the total number of anomalous nodes over all
// transitions is (approximately) l·(T−1), i.e. l per transition on
// average. A single shared δ — rather than a per-transition top-l — is
// what lets calm transitions report nothing and turbulent ones report
// more than l.
//
// |V_t| is a non-increasing step function of δ whose breakpoints are
// the residual masses of each transition's score prefixes, so the
// largest δ whose node total is at least the target (the conservative
// side: never fewer alarms than asked for unless even δ=0 cannot reach
// the target) is found exactly by a binary search over the merged
// breakpoints — see delta.go. The streaming detector keeps the per-
// transition step functions cached across pushes; this batch entry
// point computes them on the spot.
func SelectDelta(transitions []Transition, l float64) float64 {
	var marks nodeMarker
	steps := make([]deltaSteps, len(transitions))
	nb := 0
	for _, tr := range transitions {
		nb += len(tr.Scores) + 1
	}
	breaks := make([]float64, 0, nb)
	for i, tr := range transitions {
		steps[i] = newDeltaSteps(tr, &marks)
		breaks = append(breaks, steps[i].residuals...)
	}
	return selectDeltaFromSteps(steps, breaks, l)
}
