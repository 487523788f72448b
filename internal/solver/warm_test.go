package solver

import (
	"math"
	"math/rand"
	"testing"

	"dyngraph/internal/graph"
	"dyngraph/internal/sparse"
)

// perturbGraph returns a copy of g with a few random edge edits:
// weight changes on existing edges and a handful of insertions or
// deletions, keeping every weight non-negative.
func perturbGraph(rng *rand.Rand, g *graph.Graph, edits int) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.SetEdge(e.I, e.J, e.W)
	}
	edges := g.Edges()
	for k := 0; k < edits; k++ {
		switch rng.Intn(3) {
		case 0: // reweight an existing edge
			e := edges[rng.Intn(len(edges))]
			b.SetEdge(e.I, e.J, 0.5+rng.Float64())
		case 1: // insert
			i, j := rng.Intn(g.N()), rng.Intn(g.N())
			if i != j {
				b.SetEdge(i, j, 0.5+rng.Float64())
			}
		default: // delete
			e := edges[rng.Intn(len(edges))]
			b.SetEdge(e.I, e.J, 0)
		}
	}
	return b.MustBuild()
}

// rebuildFrom is NewLaplacianFrom with the diff of the two snapshots
// taken here, untraced.
func rebuildFrom(g, prevG *graph.Graph, prev *Laplacian, opt Options) *Laplacian {
	diff, err := graph.DiffSupport(prevG, g)
	if err != nil {
		panic(err)
	}
	return NewLaplacianFrom(g, prevG, prev, diff, opt, nil)
}

// solveFrom runs the single-vector loop warm-started from a copy of
// x0, at the configured tolerance.
func solveFrom(s *Laplacian, x0, b []float64) ([]float64, Stats, error) {
	x := append([]float64(nil), x0...)
	st, err := s.solve(x, b, true, 0, 0)
	return x, st, err
}

// A cold solve into a caller's buffer ignores its incoming contents
// and matches Solve bit-for-bit.
func TestSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(rng, 40)
	b := projectedRHS(rng, 40)
	s := NewLaplacian(g, Options{})
	want, _, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got := projectedRHS(rng, 40) // garbage that must be overwritten
	if _, err := s.solve(got, b, false, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("solve into buffer [%d] = %g, Solve = %g", i, got[i], want[i])
		}
	}
}

// A warm start from the already-converged solution must return it
// unchanged with zero iterations — this is what makes rebuilding an
// embedding of an unchanged graph free.
func TestSolveFromConvergedGuessIsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 60)
	b := projectedRHS(rng, 60)
	s := NewLaplacian(g, Options{})
	x0, _, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x, st, err := solveFrom(s, x0, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 {
		t.Fatalf("warm start from the solution took %d iterations, want 0", st.Iterations)
	}
	for i := range x0 {
		if x[i] != x0[i] {
			t.Fatalf("warm start changed the converged solution at %d: %g vs %g", i, x[i], x0[i])
		}
	}
}

// A warm start from an arbitrary guess must converge to the same
// minimum-norm solution as a cold solve, within tolerance, and the
// guess itself must not be modified.
func TestSolveFromAgreesWithCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(50)
		g := randomConnectedGraph(rng, n)
		b := projectedRHS(rng, n)
		s := NewLaplacian(g, Options{})
		cold, _, err := s.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		x0 := projectedRHS(rng, n) // arbitrary (even uncentered would be fine)
		saved := append([]float64(nil), x0...)
		warm, _, err := solveFrom(s, x0, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x0 {
			if x0[i] != saved[i] {
				t.Fatalf("warm solve modified its x0 argument at %d", i)
			}
		}
		scale := sparse.Norm2(cold) + 1
		for i := range cold {
			if math.Abs(warm[i]-cold[i]) > 1e-6*scale {
				t.Fatalf("trial %d: warm[%d]=%g cold[%d]=%g", trial, i, warm[i], i, cold[i])
			}
		}
	}
}

// Warm starting from the previous snapshot's solution after a small
// edit must still converge to the edited graph's solution.
func TestSolveFromAcrossEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g0 := randomConnectedGraph(rng, 80)
	g1 := perturbGraph(rng, g0, 4)
	b := projectedRHS(rng, 80)

	// Explicitly tree-preconditioned: the edits exercise the
	// patched-forest path, which PrecondAuto's probe would not pick on
	// this uniform-weight graph.
	opt := Options{Precond: PrecondTree}
	s0 := NewLaplacian(g0, opt)
	x0, _, err := s0.Solve(b)
	if err != nil {
		t.Fatal(err)
	}

	s1 := rebuildFrom(g1, g0, s0, opt)
	cold, coldSt, err := NewLaplacian(g1, opt).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmSt, err := solveFrom(s1, x0, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := s1.Residual(warm, b); r > 1e-6 {
		t.Fatalf("warm solve residual %g", r)
	}
	scale := sparse.Norm2(cold) + 1
	for i := range cold {
		if math.Abs(warm[i]-cold[i]) > 1e-5*scale {
			t.Fatalf("warm[%d]=%g cold[%d]=%g", i, warm[i], i, cold[i])
		}
	}
	t.Logf("cold %d iterations, warm %d", coldSt.Iterations, warmSt.Iterations)
}

func TestNewLaplacianFromSharesUnchangedSetup(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomConnectedGraph(rng, 50)
	opt := Options{Precond: PrecondTree} // share the forest, not just a diagonal
	s0 := NewLaplacian(g, opt)
	s1 := rebuildFrom(g, g, s0, opt)
	if !s1.ReusedPrecond() {
		t.Fatal("identical graph did not reuse the preconditioner")
	}
	b := projectedRHS(rng, 50)
	want, _, err := s0.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s1.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shared-setup solve differs at %d", i)
		}
	}
}

// Patched-forest reuse: edits that keep the component structure intact
// reuse (and patch) the previous spanning forest; solutions still agree
// with a cold build within tolerance.
func TestNewLaplacianFromPatchesForest(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(60)
		g0 := randomConnectedGraph(rng, n)
		g1 := perturbGraph(rng, g0, 3)
		s0 := NewLaplacian(g0, Options{Precond: PrecondTree})
		s1 := rebuildFrom(g1, g0, s0, Options{Precond: PrecondTree})
		cold := NewLaplacian(g1, Options{Precond: PrecondTree})

		b := projectedRHS(rng, n)
		want, _, errCold := cold.Solve(b)
		got, _, errWarm := s1.Solve(b)
		if (errCold == nil) != (errWarm == nil) {
			t.Fatalf("trial %d: cold err %v, warm err %v", trial, errCold, errWarm)
		}
		if errCold != nil {
			continue
		}
		scale := sparse.Norm2(want) + 1
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-5*scale {
				t.Fatalf("trial %d (reused=%v): solve differs at %d: %g vs %g",
					trial, s1.ReusedPrecond(), i, got[i], want[i])
			}
		}
	}
}

// Deleting a forest edge or bridging two components must force a cold
// rebuild — the patched forest would be structurally wrong.
func TestNewLaplacianFromFallsBackOnTopologyChange(t *testing.T) {
	// Two components: a path 0-1-2 and a path 3-4.
	b0 := graph.NewBuilder(5)
	b0.SetEdge(0, 1, 1)
	b0.SetEdge(1, 2, 1)
	b0.SetEdge(3, 4, 1)
	g0 := b0.MustBuild()
	s0 := NewLaplacian(g0, Options{Precond: PrecondTree})

	// Bridge the components: not patchable.
	b1 := graph.NewBuilder(5)
	b1.SetEdge(0, 1, 1)
	b1.SetEdge(1, 2, 1)
	b1.SetEdge(3, 4, 1)
	b1.SetEdge(2, 3, 1)
	g1 := b1.MustBuild()
	if s := rebuildFrom(g1, g0, s0, Options{Precond: PrecondTree}); s.ReusedPrecond() {
		t.Fatal("component-merging edge reused the forest")
	}

	// Delete a tree edge: not patchable.
	b2 := graph.NewBuilder(5)
	b2.SetEdge(0, 1, 1)
	b2.SetEdge(3, 4, 1)
	g2 := b2.MustBuild()
	if s := rebuildFrom(g2, g0, s0, Options{Precond: PrecondTree}); s.ReusedPrecond() {
		t.Fatal("forest-edge deletion reused the forest")
	}

	// Sanity: the fallback solvers still solve their graphs correctly.
	rng := rand.New(rand.NewSource(19))
	s1 := rebuildFrom(g1, g0, s0, Options{Precond: PrecondTree})
	b := projectedRHS(rng, 5)
	x, _, err := s1.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := s1.Residual(x, b); r > 1e-6 {
		t.Fatalf("fallback solve residual %g", r)
	}
}

// Clone must give an independent solver: concurrent solves from clones
// match the sequential result.
func TestCloneSolvesIndependently(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomConnectedGraph(rng, 60)
	s := NewLaplacian(g, Options{})
	rhs := make([][]float64, 8)
	want := make([][]float64, 8)
	for i := range rhs {
		rhs[i] = projectedRHS(rng, 60)
		x, _, err := s.Solve(rhs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = x
	}
	got := make([][]float64, 8)
	done := make(chan int, 8)
	for i := range rhs {
		go func(i int) {
			cl := s.Clone()
			x, _, err := cl.Solve(rhs[i])
			if err == nil {
				got[i] = x
			}
			done <- i
		}(i)
	}
	for range rhs {
		<-done
	}
	for i := range want {
		if got[i] == nil {
			t.Fatalf("clone %d failed", i)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("clone %d solve differs at %d", i, j)
			}
		}
	}
}

// pathPlusChords returns a path over n vertices with log-uniform
// weights in [10⁻², 10²] plus `chords` distinct random chords of weight
// chordW() — tree-like for weak chords, expander-like once the chords
// are as heavy as the path.
func pathPlusChords(rng *rand.Rand, n, chords int, chordW func() float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i-1, i, math.Pow(10, rng.Float64()*4-2))
	}
	for added := 0; added < chords; {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j && j != i+1 && i != j+1 && b.Weight(i, j) == 0 {
			b.AddEdge(i, j, chordW())
			added++
		}
	}
	return b.MustBuild()
}

// uniformReweight returns g with every edge reweighted to 1 + 0.1·U —
// the same support, so rebuilds from a solver for g take the patched
// path.
func uniformReweight(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.SetEdge(e.I, e.J, 1+0.1*rng.Float64())
	}
	return b.MustBuild()
}

// The reuse paths' cold fallbacks keep the pin: Jacobi under an
// inserted edge and the tree after a deleted forest edge are rebuilt
// cold with the same kind and no probe. (The patched path keeping the
// pin across a degree-4 crossing is covered at the embedding level,
// TestEmbeddingFromKeepsPinAcrossDegreeCrossing.)
func TestPinSurvivesColdFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	opt := Options{Tol: 1e-5}
	tree := pathPlusChords(rng, 400, 380, func() float64 { return 1e-3 * (1 + rng.Float64()) })
	jacobi := uniformReweight(rng, tree)
	for _, c := range []struct {
		g    *graph.Graph
		edit func(*graph.Builder)
		want Precond
	}{
		{tree, func(b *graph.Builder) { b.SetEdge(0, 1, 0) }, PrecondTree},
		{jacobi, func(b *graph.Builder) { b.SetEdge(0, 200, 1) }, PrecondJacobi},
	} {
		s0 := NewLaplacian(c.g, opt)
		if s0.Precond() != c.want {
			t.Fatalf("cold build pinned %v (probe %+v), want %v", s0.Precond(), s0.Probe(), c.want)
		}
		b := copyGraph(c.g)
		c.edit(b)
		g1 := b.MustBuild()
		s1 := rebuildFrom(g1, c.g, s0, opt)
		if s1.Precond() != c.want || s1.ReusedPrecond() || s1.Probe().Ran {
			t.Fatalf("%v fallback: precond %v, reused %v, probe %+v", c.want, s1.Precond(), s1.ReusedPrecond(), s1.Probe())
		}
		if s1.estIters != s0.estIters {
			t.Fatalf("%v fallback dropped the pin's estimate: %g, want %g", c.want, s1.estIters, s0.estIters)
		}
	}
}

// The drift re-probe: a tree-pinned stream whose weights turn uniform
// solves far over the pin's estimate on the patched forest, so the
// next rebuild re-probes — once — and moves to Jacobi; later pushes on
// the uniform weights stay within the new estimate and keep the pin.
func TestPinReprobesOnceOnDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n, k = 600, 4
	g := pathPlusChords(rng, n, n, func() float64 { return 1e-3 })
	opt := Options{Tol: 1e-5}
	s := NewLaplacian(g, opt)
	if s.Precond() != PrecondTree {
		t.Fatalf("tree-like graph pinned %v (probe %+v)", s.Precond(), s.Probe())
	}
	y := blockRHS(rng, n, k)
	x := make([]float64, n*k)
	if _, err := s.SolveBlock(x, y, k, 1); err != nil {
		t.Fatal(err)
	}
	var fired []int
	var re *Laplacian // the solver the re-probe built, and its graph
	var reG *graph.Graph
	for push := 1; push <= 6; push++ {
		next := uniformReweight(rng, g)
		s1 := rebuildFrom(next, g, s, opt)
		if s1.Probe().Ran {
			fired = append(fired, push)
			re, reG = s1, next
		}
		if _, err := s1.SolveBlockWith(x, y, k, 1, true, 0, nil); err != nil {
			t.Fatal(err)
		}
		t.Logf("push %d: %v, est %.1f, %.1f iterations per column", push, s1.Precond(), s1.estIters, s1.lastIters)
		s, g = s1, next
	}
	if len(fired) != 1 || fired[0] != 2 || s.Precond() != PrecondJacobi {
		t.Fatalf("re-probes at pushes %v ending on %v, want one at push 2 moving to jacobi", fired, s.Precond())
	}

	// The re-probed solver never re-probes its direct successor, however
	// far its own solves drift.
	if !re.reprobed {
		t.Fatal("re-probed solver not marked")
	}
	re.lastIters = 1e9
	if s2 := rebuildFrom(uniformReweight(rng, reG), reG, re, opt); s2.Probe().Ran || s2.Precond() != PrecondJacobi {
		t.Fatalf("re-probe fired on two consecutive pushes (precond %v)", s2.Precond())
	}
}
