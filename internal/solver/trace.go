package solver

import (
	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
)

// Observability entry points: every Traced variant is the plain call
// wrapped in an obs span emitted under the caller's parent. A nil
// parent disables the spans (obs spans are nil-safe), so batch paths
// that pass nil pay only the receiver checks.

// PrecondSpanName is the span the solver emits around preconditioner
// setup; its "mode" attribute records the reuse path taken (cold,
// shared or patched), and builds that probed add the pick and both
// candidates' estimates ("pick", "probe_jacobi_est", "probe_tree_est"
// — the latter 0 when the forest was never built).
const PrecondSpanName = "precond"

// SolveSpanName is the span the solver emits around a blocked solve,
// carrying the warm/cold mode and the iteration counts.
const SolveSpanName = "pcg"

// NewLaplacianTraced is NewLaplacian with a preconditioner-build span.
func NewLaplacianTraced(g *graph.Graph, opt Options, parent *obs.Span) *Laplacian {
	sp := parent.StartChild(PrecondSpanName)
	s := NewLaplacian(g, opt)
	annotatePrecond(sp, s)
	sp.End()
	return s
}

// NewLaplacianFromTraced is NewLaplacianFrom with a span recording
// whether the previous snapshot's setup was shared, patched, or rebuilt
// cold.
func NewLaplacianFromTraced(g, prevG *graph.Graph, prev *Laplacian, opt Options, parent *obs.Span) *Laplacian {
	sp := parent.StartChild(PrecondSpanName)
	s := NewLaplacianFrom(g, prevG, prev, opt)
	annotatePrecond(sp, s)
	sp.End()
	return s
}

// NewLaplacianFromDiffTraced is NewLaplacianFromDiff with the same
// precond span as NewLaplacianFromTraced.
func NewLaplacianFromDiffTraced(g, prevG *graph.Graph, prev *Laplacian, diff []graph.Key, opt Options, parent *obs.Span) *Laplacian {
	sp := parent.StartChild(PrecondSpanName)
	s := NewLaplacianFromDiff(g, prevG, prev, diff, opt)
	annotatePrecond(sp, s)
	sp.End()
	return s
}

func annotatePrecond(sp *obs.Span, s *Laplacian) {
	if sp == nil {
		return
	}
	sp.SetString("precond", s.precond.String())
	mode := s.reuseKind
	if mode == "" {
		mode = "cold"
	}
	sp.SetString("mode", mode)
	sp.SetInt("n", int64(s.n))
	sp.SetInt("components", int64(len(s.size)))
	if s.probe.Ran {
		sp.SetString("pick", s.precond.String())
		sp.SetFloat("probe_jacobi_est", s.probe.JacobiEst)
		sp.SetFloat("probe_tree_est", s.probe.TreeEst)
		sp.SetInt("probe_iterations", int64(s.probe.Iterations))
	}
}

// SolveBlockTraced is SolveBlock with a solve span carrying the
// per-build iteration counts.
func (s *Laplacian) SolveBlockTraced(x, b []float64, k, workers int, parent *obs.Span) ([]Stats, error) {
	sp := parent.StartChild(SolveSpanName)
	stats, err := s.solveBlock(x, b, k, workers, false)
	annotateSolve(sp, stats, k, false, err)
	sp.End()
	return stats, err
}

// SolveBlockFromTraced is SolveBlockFrom (warm-started) with a solve
// span.
func (s *Laplacian) SolveBlockFromTraced(x, b []float64, k, workers int, parent *obs.Span) ([]Stats, error) {
	sp := parent.StartChild(SolveSpanName)
	stats, err := s.solveBlock(x, b, k, workers, true)
	annotateSolve(sp, stats, k, true, err)
	sp.End()
	return stats, err
}

// SolveBlockFromTolTraced is SolveBlockFromTraced at an explicit
// tolerance overriding the solver's configured one for this call only
// (tol ≤ 0 means no override). The incremental embedding path uses it
// to polish its verification solves below the serving tolerance: the
// headroom between the polished residual and the serving target is
// what its residual certificate spends to skip subsequent
// verifications entirely.
func (s *Laplacian) SolveBlockFromTolTraced(x, b []float64, k, workers int, tol float64, parent *obs.Span) ([]Stats, error) {
	saved := s.opt
	if tol > 0 {
		s.opt.Tol = tol
	}
	defer func() { s.opt = saved }()
	return s.SolveBlockFromTraced(x, b, k, workers, parent)
}

func annotateSolve(sp *obs.Span, stats []Stats, k int, warm bool, err error) {
	if sp == nil {
		return
	}
	var total, block int
	for _, st := range stats {
		total += st.Iterations
		if st.Iterations > block {
			block = st.Iterations
		}
	}
	sp.SetInt("k", int64(k))
	sp.SetBool("warm", warm)
	sp.SetInt("pcg_iterations", int64(total))
	sp.SetInt("block_iterations", int64(block))
	if err != nil {
		sp.SetString("error", err.Error())
	}
}
