// Package solver provides fast solvers for graph-Laplacian linear
// systems L x = b. The paper relies on the Spielman–Teng near-linear
// SDD solver (via Khoa & Chawla's commute-time embedding); this package
// is our from-scratch, stdlib-only substitute: preconditioned conjugate
// gradient with either a max-weight spanning-tree preconditioner
// (tree-like graphs) or a Jacobi diagonal (expanders, similarity
// graphs), plus the null-space projection that makes the singular
// Laplacian system well posed.
//
// Which preconditioner a graph gets is measured, not guessed: under
// PrecondAuto a cold build runs a short, capped PCG probe of each
// candidate on one fixed right-hand side and pins the cheaper
// extrapolated cost (see NewLaplacian). The probe reads only iteration
// counts and residuals, never the clock, so the pick is a pure
// function of the graph and the tolerance. Rebuilds from a previous
// solver (NewLaplacianFrom) inherit its pin, so a stream keeps one
// preconditioner across pushes unless its solves drift far above the
// pin's estimate.
package solver

import (
	"errors"
	"fmt"
	"math"

	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
	"dyngraph/internal/sparse"
)

// Precond selects the PCG preconditioner.
type Precond int

const (
	// PrecondAuto (the default) picks by a capped probe: Jacobi is
	// run for at most probeIters PCG iterations on a fixed right-hand
	// side and its iteration count to tolerance extrapolated from the
	// residual reached; when that estimate is small the Jacobi
	// diagonal is pinned without building the spanning forest.
	// Otherwise the forest is built, probed the same way, and the
	// candidate with the lower estimated iterations × per-iteration
	// cost wins. Degree does not decide: a sparse expander wants Jacobi
	// and a weighted near-tree wants the forest, whatever their average
	// degree (BenchmarkPCGPreconditionerAblation,
	// TestPrecondProbePicksCheapest).
	PrecondAuto Precond = iota
	// PrecondTree uses the exact pseudoinverse of a max-weight
	// spanning forest of the graph.
	PrecondTree
	// PrecondJacobi uses the inverse degree diagonal.
	PrecondJacobi
	// PrecondNone runs plain CG.
	PrecondNone
)

// String implements fmt.Stringer.
func (p Precond) String() string {
	switch p {
	case PrecondAuto:
		return "auto"
	case PrecondTree:
		return "tree"
	case PrecondJacobi:
		return "jacobi"
	case PrecondNone:
		return "none"
	default:
		return fmt.Sprintf("Precond(%d)", int(p))
	}
}

// Options configures a Laplacian solver.
type Options struct {
	// Tol is the relative residual target ‖b−Lx‖₂ ≤ Tol·‖b‖₂.
	// Zero means the default 1e-8.
	Tol float64
	// MaxIter caps PCG iterations. Zero means 10·n + 100.
	MaxIter int
	// Precond selects the preconditioner (default PrecondAuto).
	Precond Precond
}

func (o Options) tol() float64 {
	if o.Tol <= 0 {
		return 1e-8
	}
	return o.Tol
}

// Tolerance is the effective relative residual target: Tol, or the
// default when Tol is unset. Exported so callers carrying residual
// bounds across incremental updates test against the same number the
// solver itself enforces.
func (o Options) Tolerance() float64 { return o.tol() }

func (o Options) maxIter(n int) int {
	if o.MaxIter <= 0 {
		return 10*n + 100
	}
	return o.MaxIter
}

// Stats reports the work done by a solve.
type Stats struct {
	Iterations int
	Residual   float64 // final relative residual
	// NormB is ‖P b‖₂ — the denominator the relative residual is
	// measured against. Residual·NormB is the absolute residual, which
	// the incremental embedding path carries across pushes to decide
	// when a corrected block provably still meets tolerance.
	NormB float64
}

// ErrNoConvergence is returned when PCG exhausts MaxIter without
// reaching the residual target. The best iterate found is still
// returned alongside the error.
var ErrNoConvergence = errors.New("solver: PCG did not converge")

// Laplacian is a reusable solver for systems in one graph's Laplacian.
// Building it once amortizes preconditioner setup across the k solves
// performed by the commute-time embedding. It is safe for concurrent
// Solve calls only if each goroutine uses its own Laplacian value;
// Solve reuses internal scratch buffers.
type Laplacian struct {
	n    int
	l    *sparse.CSR
	comp []int // graph component per vertex
	size []int // component sizes

	precond   Precond
	invDiag   []float64     // Jacobi
	tree      *spanningTree // Tree
	reused    bool          // preconditioner carried over from a previous snapshot
	reuseKind string        // "" (cold), "shared" or "patched" — the reuse path taken

	// The pin: probe is what PrecondAuto measured when this solver was
	// built cold (zero when the kind was explicit or inherited);
	// estIters is the pinned kind's estimated cold iterations per
	// column, carried along every rebuild that inherits the pin (0 when
	// unknown). lastIters is the mean per-column iteration count of
	// this solver's latest block solve (0 before one); reprobed marks a
	// solver built by a drift re-probe, whose direct successor may not
	// re-probe again.
	probe     Probe
	estIters  float64
	lastIters float64
	reprobed  bool

	opt Options

	// scratch buffers reused across Solve calls
	r, z, p, q, s1 []float64
	csum           []float64 // per-component sums for project
	tsum           []float64 // per-component means for the tree solve

	// blk is the lazily sized SolveBlock iteration state (see block.go).
	blk *blockScratch
}

// Probe records how PrecondAuto picked a cold solver's preconditioner.
// Estimates are iteration counts to the solver's tolerance,
// extrapolated from a capped PCG run on a fixed right-hand side and
// capped at the solver's MaxIter.
type Probe struct {
	// Ran is true when this solver's preconditioner was chosen by a
	// probe (a PrecondAuto cold build or a drift re-probe).
	Ran bool
	// Iterations is the number of probe PCG iterations spent, over
	// both candidates.
	Iterations int
	// JacobiEst is the Jacobi candidate's estimate.
	JacobiEst float64
	// TreeEst is the spanning-tree candidate's estimate; 0 when Jacobi
	// was cheap enough that the forest was never built.
	TreeEst float64
}

const (
	// probeIters caps each candidate's probe run. Sixteen iterations
	// are enough for the residual's decay rate to settle on every
	// family the ablation covers, and cost a small fraction of the
	// cold solve the probe precedes.
	probeIters = 16
	// probeJacobiAccept is the Jacobi estimate at or below which the
	// probe pins Jacobi without building and probing the forest. It
	// trades pick quality for probe cost: expander-like graphs land
	// well below it (22–55 on the push benchmark's Jacobi workloads)
	// and never pay for the forest, while a graph just under it may
	// leave a better tree unused at a cost of at most a few dozen
	// Jacobi iterations per solve.
	probeJacobiAccept = 80
	// driftFactor is how far a pinned solver's block solve may run
	// over the pin's estimate (iterations per column) before the next
	// rebuild re-probes.
	driftFactor = 2
)

// NewLaplacian prepares a solver for the Laplacian of g from scratch.
// Under PrecondAuto it picks the preconditioner by probing (see
// PrecondAuto); an explicit Options.Precond is used as given. It is
// NewLaplacianFrom with no previous solver and no span.
func NewLaplacian(g *graph.Graph, opt Options) *Laplacian {
	return NewLaplacianFrom(g, nil, nil, nil, opt, nil)
}

// newCold is the cold build: the probe under PrecondAuto, the explicit
// kind otherwise.
func newCold(g *graph.Graph, opt Options) *Laplacian {
	s := newLaplacianShell(g, opt)
	if opt.Precond == PrecondAuto {
		s.pickByProbe(g)
	} else {
		s.setPrecond(g, opt.Precond)
	}
	return s
}

// newLaplacianShell builds the matrix, the component labelling and the
// single-RHS scratch — everything but the preconditioner.
func newLaplacianShell(g *graph.Graph, opt Options) *Laplacian {
	comp, ncomp := g.Components()
	size := make([]int, ncomp)
	for _, c := range comp {
		size[c]++
	}
	s := &Laplacian{
		n:    g.N(),
		l:    g.Laplacian(),
		comp: comp,
		size: size,
		opt:  opt,
	}
	s.allocScratch()
	return s
}

// setPrecond builds the preconditioner of kind p for g.
func (s *Laplacian) setPrecond(g *graph.Graph, p Precond) {
	s.precond = p
	s.invDiag, s.tree, s.tsum = nil, nil, nil
	switch p {
	case PrecondJacobi:
		s.invDiag = make([]float64, s.n)
		for i, d := range g.Degrees() {
			if d > 0 {
				s.invDiag[i] = 1 / d
			}
		}
	case PrecondTree:
		s.tree = maxWeightSpanningTree(g)
		s.tsum = make([]float64, len(s.tree.compSize))
	}
}

// pickByProbe pins the preconditioner PrecondAuto measures cheapest for
// g: Jacobi outright when its estimate is at most probeJacobiAccept,
// otherwise whichever of Jacobi and the spanning tree has the lower
// estimated iterations × per-iteration cost, counted in matrix entries
// touched: nnz(L)+n for a Jacobi iteration, nnz(L)+4n for a tree one
// (the forest solve sweeps the vertices down and up the tree).
func (s *Laplacian) pickByProbe(g *graph.Graph) {
	b := probeRHS(s.n)
	x := make([]float64, s.n)
	s.setPrecond(g, PrecondJacobi)
	it, jacobi := s.probeRun(x, b)
	s.probe = Probe{Ran: true, Iterations: it, JacobiEst: jacobi}
	s.estIters = jacobi
	if jacobi <= probeJacobiAccept {
		return
	}
	invDiag := s.invDiag
	s.setPrecond(g, PrecondTree)
	it, tree := s.probeRun(x, b)
	s.probe.Iterations += it
	s.probe.TreeEst = tree
	nnz, n := float64(s.l.NNZ()), float64(s.n)
	if tree*(nnz+4*n) < jacobi*(nnz+n) {
		s.estIters = tree
		return
	}
	s.precond, s.invDiag, s.tree, s.tsum = PrecondJacobi, invDiag, nil, nil
}

// probeRun runs at most probeIters PCG iterations from zero on b with
// the current preconditioner and returns the iterations spent and the
// extrapolated iteration count to the solver's tolerance,
// it·ln(tol)/ln(res) — PCG's residual decays roughly geometrically, so
// the rate over the first iterations predicts the rest. A run that
// converges reports its true count; one that makes no progress reports
// the solver's MaxIter.
func (s *Laplacian) probeRun(x, b []float64) (int, float64) {
	st, _ := s.solve(x, b, false, 0, probeIters)
	tol, maxIt := s.opt.tol(), float64(s.opt.maxIter(s.n))
	switch {
	case st.Residual <= tol:
		return st.Iterations, float64(st.Iterations)
	case st.Iterations == 0 || !(st.Residual < 1):
		return st.Iterations, maxIt
	}
	return st.Iterations, math.Min(maxIt, float64(st.Iterations)*math.Log(tol)/math.Log(st.Residual))
}

// probeRHS is the probe's fixed right-hand side: a ±1 vector with
// signs from a hash of the vertex index (so no vertex ordering — a
// path laid out in index order, say — lines up with it), seed-free so
// every build of the same graph probes the same system. solve
// projects it onto range(L).
func probeRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		h := uint64(i+1) * 0x9E3779B97F4A7C15
		h ^= h >> 31
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
		if h&1 == 0 {
			b[i] = 1
		} else {
			b[i] = -1
		}
	}
	return b
}

// NewLaplacianFrom prepares a solver for the Laplacian of g, reusing
// the setup prev built for the previous snapshot prevG (same vertex
// set) wherever that is sound; neither prev nor prevG is modified
// beyond handing prev's block scratch to the new solver. diff must be
// exactly graph.DiffSupport(prevG, g) — the streaming caller diffs
// consecutive snapshots once per push and threads the result here. A
// nil prev is a cold build (NewLaplacian); a nil prevG or a vertex-count
// change skips reuse but keeps the pin. parent scopes a "precond" span
// recording the preconditioner, the reuse path taken and any probe
// (nil disables it).
//
// Under PrecondAuto the new solver keeps prev's preconditioner kind —
// the stream's pin — on every path, cold fallbacks included; nothing
// re-measures the graph. The one exception is drift: when prev's
// latest block solve took more than driftFactor× the pin's estimated
// iterations per column, the pin no longer describes the graph and
// the new solver is built cold with a fresh probe. A solver built by
// such a re-probe never re-probes its direct successor, so the
// re-probe cannot fire on two consecutive pushes. An explicit
// Options.Precond overrides the pin.
//
// Reuse rules:
//
//   - If no edge weight changed, the whole setup (matrix, component
//     labelling, preconditioner) is shared.
//   - Pure reweights (every edited pair carries an edge in both
//     graphs): the support — and with it the component structure, the
//     null-space projection and the Laplacian's CSR sparsity pattern —
//     is untouched, so the matrix is patched value-by-value on a
//     shared-structure clone (no COO assembly, no sort, no DFS) and
//     the preconditioner is updated in place: the Jacobi diagonal at
//     the edited endpoints, the spanning forest's weight array for
//     forest edges.
//   - Tree preconditioner under inserts/deletes: the previous
//     max-weight spanning forest is kept — with patched edge weights —
//     as long as no forest edge was deleted and no new edge bridges
//     two forest components. Both conditions together also pin the
//     component structure, so the null-space projection carries over.
//     The patched forest may no longer be the maximum-weight one,
//     which degrades convergence gracefully (a few extra PCG
//     iterations) but never correctness: any spanning forest of the
//     graph's components is a valid SPD preconditioner on range(L).
//
// Anything else falls back to a cold build of the pinned kind.
// ReusedPrecond reports which path was taken.
func NewLaplacianFrom(g, prevG *graph.Graph, prev *Laplacian, diff []graph.Key, opt Options, parent *obs.Span) *Laplacian {
	sp := parent.StartChild(PrecondSpanName)
	s := rebuild(g, prevG, prev, diff, opt)
	annotatePrecond(sp, s)
	sp.End()
	return s
}

// rebuild is NewLaplacianFrom without the span.
func rebuild(g, prevG *graph.Graph, prev *Laplacian, diff []graph.Key, opt Options) *Laplacian {
	if prev == nil {
		return newCold(g, opt)
	}
	if opt.Precond == PrecondAuto && prev.drifted() {
		s := newCold(g, opt)
		s.reprobed = true
		return s
	}
	if prevG == nil || prev.n != g.N() || pinOf(prev, opt) != prev.precond {
		return newPinned(g, prev, opt)
	}
	if len(diff) == 0 {
		cl := prev.Clone()
		cl.opt = opt
		cl.reused = true
		cl.reuseKind = "shared"
		cl.inheritPin(prev)
		cl.adoptBlockScratch(prev)
		return cl
	}
	if supportUnchanged(g, prevG, diff) {
		if s := prev.patchedVals(g, prevG, diff, opt); s != nil {
			return s
		}
	}
	if prev.precond != PrecondTree {
		return newPinned(g, prev, opt)
	}
	tree, ok := prev.tree.patched(g, diff)
	if !ok {
		return newPinned(g, prev, opt)
	}
	s := &Laplacian{
		n:         prev.n,
		l:         g.Laplacian(),
		comp:      prev.comp, // component structure unchanged by the patch rules
		size:      prev.size,
		precond:   PrecondTree,
		tree:      tree,
		reused:    true,
		reuseKind: "patched",
		opt:       opt,
	}
	s.inheritPin(prev)
	s.allocScratch()
	s.adoptBlockScratch(prev)
	return s
}

// pinOf is the preconditioner a rebuild from prev uses: the explicit
// choice in opt, or prev's pinned kind under PrecondAuto.
func pinOf(prev *Laplacian, opt Options) Precond {
	if opt.Precond != PrecondAuto {
		return opt.Precond
	}
	return prev.precond
}

// newPinned is the cold fallback of the reuse paths: a fresh build of
// g with prev's pinned kind (or the explicit one in opt), no probe.
func newPinned(g *graph.Graph, prev *Laplacian, opt Options) *Laplacian {
	s := newLaplacianShell(g, opt)
	s.setPrecond(g, pinOf(prev, opt))
	s.inheritPin(prev)
	return s
}

// inheritPin carries prev's estimate over to a solver built from it
// with the same kind; the probe record and the iteration history
// belong to prev's own build and solves, so they start afresh.
func (s *Laplacian) inheritPin(prev *Laplacian) {
	s.probe, s.lastIters, s.reprobed, s.estIters = Probe{}, 0, false, 0
	if s.precond == prev.precond {
		s.estIters = prev.estIters
	}
}

// drifted reports whether this solver's latest block solve ran more
// than driftFactor× over its pin's estimate, so the next rebuild
// should re-probe. A solver that was itself built by a re-probe never
// reports drift.
func (s *Laplacian) drifted() bool {
	return !s.reprobed && s.estIters > 0 && s.lastIters > driftFactor*s.estIters
}

// supportUnchanged reports whether every differing pair carries a
// non-zero edge in both graphs — a pure-reweight edit, which leaves the
// sparsity pattern and the component structure untouched.
func supportUnchanged(g, prevG *graph.Graph, diff []graph.Key) bool {
	for _, k := range diff {
		if g.Weight(k.I, k.J) == 0 || prevG.Weight(k.I, k.J) == 0 {
			return false
		}
	}
	return true
}

// patchedVals builds the solver for g by patching prev's Laplacian
// values in place on a shared-structure CSR clone — the pure-reweight
// fast path. The component labelling is shared outright (reweights
// cannot change it) and the preconditioner is updated at the edited
// entries only. Patched entries are written from g's weights and
// degrees directly — never accumulated as ±Δw, which rounds twice —
// so the patched matrix is bit-identical to a fresh assembly and a
// solve on it follows the exact trajectory a cold build would. (The
// batch-vs-streaming equality tests lean on this: near-tied scores
// keep their sort order only when the two paths solve bit-equal
// systems.) Returns nil when the sparsity pattern surprises (a diff
// entry without a stored slot), sending the caller to a cold build.
func (prev *Laplacian) patchedVals(g, prevG *graph.Graph, diff []graph.Key, opt Options) *Laplacian {
	l := prev.l.CloneVals()
	deg := g.Degrees()
	for _, k := range diff {
		w := g.Weight(k.I, k.J)
		ij, ji := l.FindEntry(k.I, k.J), l.FindEntry(k.J, k.I)
		ii, jj := l.FindEntry(k.I, k.I), l.FindEntry(k.J, k.J)
		if ij < 0 || ji < 0 || ii < 0 || jj < 0 {
			return nil
		}
		l.Val[ij] = -w // off-diagonal is −w
		l.Val[ji] = -w
		l.Val[ii] = deg[k.I] // diagonal is the weighted degree
		l.Val[jj] = deg[k.J]
	}
	s := &Laplacian{
		n:         prev.n,
		l:         l,
		comp:      prev.comp,
		size:      prev.size,
		precond:   prev.precond,
		reused:    true,
		reuseKind: "patched",
		opt:       opt,
	}
	switch prev.precond {
	case PrecondJacobi:
		inv := append([]float64(nil), prev.invDiag...)
		for _, k := range diff {
			for _, v := range [2]int{k.I, k.J} {
				if deg[v] > 0 {
					inv[v] = 1 / deg[v]
				} else {
					inv[v] = 0
				}
			}
		}
		s.invDiag = inv
	case PrecondTree:
		tree, ok := prev.tree.patched(g, diff)
		if !ok {
			return nil
		}
		s.tree = tree
	}
	s.inheritPin(prev)
	s.allocScratch()
	s.adoptBlockScratch(prev)
	return s
}

// Clone returns a solver sharing s's immutable setup (matrix, component
// labelling, preconditioner) with fresh scratch buffers, so another
// goroutine can Solve concurrently.
func (s *Laplacian) Clone() *Laplacian {
	cl := *s
	cl.allocScratch()
	return &cl
}

func (s *Laplacian) allocScratch() {
	s.blk = nil // block scratch is per-solver; Clone must not share it
	s.r = make([]float64, s.n)
	s.z = make([]float64, s.n)
	s.p = make([]float64, s.n)
	s.q = make([]float64, s.n)
	s.s1 = make([]float64, s.n)
	s.csum = make([]float64, len(s.size))
	if s.tree != nil {
		s.tsum = make([]float64, len(s.tree.compSize))
	}
}

// N returns the system dimension.
func (s *Laplacian) N() int { return s.n }

// ReusedPrecond reports whether this solver's preconditioner setup was
// carried over (shared or patched) from a previous snapshot's by
// NewLaplacianFrom instead of being built cold.
func (s *Laplacian) ReusedPrecond() bool { return s.reused }

// Precond returns the preconditioner kind this solver runs — never
// PrecondAuto, which resolves to a concrete kind at build time.
func (s *Laplacian) Precond() Precond { return s.precond }

// Probe reports the probe that picked this solver's preconditioner;
// Probe().Ran is false when the kind was explicit or inherited from a
// previous solver.
func (s *Laplacian) Probe() Probe { return s.probe }

// project removes each component's mean from x in place, mapping it
// into the range of L (the orthogonal complement of the null space).
// A connected graph takes a fast path without the component
// indirection; its arithmetic (one running sum in vertex order, one
// division, one subtraction per entry) is the general loop's.
func (s *Laplacian) project(x []float64) {
	if len(s.size) == 1 {
		var sum float64
		for _, v := range x {
			sum += v
		}
		mean := sum / float64(s.size[0])
		for i := range x {
			x[i] -= mean
		}
		return
	}
	sums := s.csum
	for c := range sums {
		sums[c] = 0
	}
	for v, c := range s.comp {
		sums[c] += x[v]
	}
	for c := range sums {
		sums[c] /= float64(s.size[c])
	}
	for v, c := range s.comp {
		x[v] -= sums[c]
	}
}

// applyPrecond computes z = M⁻¹ r.
func (s *Laplacian) applyPrecond(z, r []float64) {
	switch s.precond {
	case PrecondTree:
		s.tree.solve(z, r, s.s1, s.tsum)
	case PrecondJacobi:
		for i, v := range r {
			z[i] = v * s.invDiag[i]
		}
	default:
		copy(z, r)
	}
}

// Solve computes the minimum-norm solution of L x = b, first projecting
// b onto the range of L (per-component mean removal, as the paper's
// commute-time right-hand sides require). The result is written into a
// new slice. If PCG stalls before reaching the tolerance the best
// iterate is returned together with ErrNoConvergence.
func (s *Laplacian) Solve(b []float64) ([]float64, Stats, error) {
	x := make([]float64, s.n)
	st, err := s.solve(x, b, false, 0, 0)
	return x, st, err
}

// limits resolves a call's tolerance and iteration cap: values ≤ 0 mean
// the solver's configured ones.
func (s *Laplacian) limits(tol float64, maxIter int) (float64, int) {
	if tol <= 0 {
		tol = s.opt.tol()
	}
	if maxIter <= 0 {
		maxIter = s.opt.maxIter(s.n)
	}
	return tol, maxIter
}

// solve is the single-vector PCG loop, run to tolerance tol or maxIter
// iterations (≤ 0: the configured values, see limits). When warm is
// true, x's incoming contents are the initial guess; otherwise x is
// zeroed first. Either way the converged minimum-norm (per-component
// mean-centered) solution is left in x.
func (s *Laplacian) solve(x, b []float64, warm bool, tol float64, maxIter int) (Stats, error) {
	if len(b) != s.n || len(x) != s.n {
		return Stats{}, fmt.Errorf("solver: Solve dimension mismatch: len(x)=%d, len(b)=%d, n=%d", len(x), len(b), s.n)
	}
	copy(s.r, b)
	s.project(s.r) // r = P b  (before subtracting L x0)
	normB := sparse.Norm2(s.r)
	if normB == 0 {
		sparse.Zero(x) // the minimum-norm solution of L x = 0
		return Stats{}, nil
	}
	tol, maxIter = s.limits(tol, maxIter)

	if warm {
		// r = P b − L x0. L x0 is already in range(L), but project r
		// anyway to guard against floating-point drift. A guess that is
		// already within tolerance is returned bit-for-bit unchanged —
		// the property that makes rebuilding an embedding of an
		// unchanged snapshot free and exactly reproducible. (L is blind
		// to per-component means, so a caller warm-starting from an
		// uncentered guess gets that guess's means back on this path;
		// guesses taken from a previous Solve are already centered.)
		s.l.MulVec(s.q, x)
		sparse.Axpy(-1, s.q, s.r)
		s.project(s.r)
		if res := sparse.Norm2(s.r) / normB; res <= tol {
			return Stats{Residual: res, NormB: normB}, nil
		}
		// Center the guess now so every iterate — and therefore the
		// returned solution — is the minimum-norm representative.
		// Shifting x by component constants does not change r.
		s.project(x)
	} else {
		sparse.Zero(x)
	}

	s.applyPrecond(s.z, s.r)
	s.project(s.z)
	copy(s.p, s.z)
	rz := sparse.Dot(s.r, s.z)

	st := Stats{NormB: normB}
	for it := 1; it <= maxIter; it++ {
		s.l.MulVec(s.q, s.p)
		pq := sparse.Dot(s.p, s.q)
		if pq <= 0 || math.IsNaN(pq) {
			// Numerical breakdown: direction fell into the null space.
			st.Residual = sparse.Norm2(s.r) / normB
			return st, ErrNoConvergence
		}
		alpha := rz / pq
		sparse.Axpy(alpha, s.p, x)
		sparse.Axpy(-alpha, s.q, s.r)
		s.project(s.r) // guard against drift back into the null space

		st.Iterations = it
		res := sparse.Norm2(s.r) / normB
		st.Residual = res
		if res <= tol {
			s.project(x) // return the minimum-norm representative
			return st, nil
		}
		s.applyPrecond(s.z, s.r)
		s.project(s.z)
		rzNew := sparse.Dot(s.r, s.z)
		beta := rzNew / rz
		rz = rzNew
		for i := range s.p {
			s.p[i] = s.z[i] + beta*s.p[i]
		}
	}
	s.project(x)
	return st, ErrNoConvergence
}

// Residual returns ‖b − L x‖₂ / ‖b‖₂ with b projected onto range(L);
// a convenience for tests and diagnostics.
func (s *Laplacian) Residual(x, b []float64) float64 {
	pb := append([]float64(nil), b...)
	s.project(pb)
	nb := sparse.Norm2(pb)
	if nb == 0 {
		return 0
	}
	lx := make([]float64, s.n)
	s.l.MulVec(lx, x)
	sparse.Sub(lx, pb, lx)
	return sparse.Norm2(lx) / nb
}
