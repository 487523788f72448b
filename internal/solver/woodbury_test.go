package solver

import (
	"math"
	"math/rand"
	"testing"

	"dyngraph/internal/graph"
)

// copyGraph returns a builder pre-loaded with g's edges.
func copyGraph(g *graph.Graph) *graph.Builder {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.SetEdge(e.I, e.J, e.W)
	}
	return b
}

// reweightEdits picks m distinct existing edges and returns an edited
// copy of g together with the matching EdgeUpdate list. Every edit
// keeps the edge alive (pure reweight), so the component structure —
// the Woodbury identity's precondition — is untouched.
func reweightEdits(rng *rand.Rand, g *graph.Graph, m int) (*graph.Graph, []EdgeUpdate) {
	b := copyGraph(g)
	edges := g.Edges()
	perm := rng.Perm(len(edges))
	updates := make([]EdgeUpdate, 0, m)
	for _, idx := range perm[:m] {
		e := edges[idx]
		w := 0.5 + rng.Float64()
		if w == e.W {
			w += 0.25
		}
		b.SetEdge(e.I, e.J, w)
		updates = append(updates, EdgeUpdate{I: e.I, J: e.J, DeltaW: w - e.W})
	}
	return b.MustBuild(), updates
}

// blockRHS builds a row-major n×k block of per-column centered
// right-hand sides (column-major randomness does not matter here).
func blockRHS(rng *rand.Rand, n, k int) []float64 {
	b := make([]float64, n*k)
	for c := 0; c < k; c++ {
		col := projectedRHS(rng, n)
		for v := 0; v < n; v++ {
			b[v*k+c] = col[v]
		}
	}
	return b
}

// The headline property: m base solves on the OLD solver plus the
// dense Woodbury correction must land the solution block of the NEW
// operator close enough that the warm-started verification solve
// finishes it within tolerance in at most a couple of iterations —
// against the tens of iterations a from-scratch blocked solve costs.
// (IncidenceSolves deliberately runs at √tol; the verification pass
// owns the final tolerance, so the raw correction is only gated
// loosely here.)
func TestWoodburyCorrectMatchesDirectSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, k = 60, 4
	for trial := 0; trial < 10; trial++ {
		m := 1 + rng.Intn(4)
		g := randomConnectedGraph(rng, n)
		opt := Options{Tol: 1e-10, Precond: PrecondTree} // the base solves this gate was calibrated on
		s := NewLaplacian(g, opt)
		y := blockRHS(rng, n, k)
		z := make([]float64, n*k)
		if _, err := s.SolveBlock(z, y, k, 1); err != nil {
			t.Fatal(err)
		}
		g2, updates := reweightEdits(rng, g, m)

		u, _, err := s.IncidenceSolves(updates, 1)
		if err != nil {
			t.Fatal(err)
		}
		coef := make([]float64, m*k) // operator-only change: ΔY = 0
		if _, err := WoodburyCorrect(z, k, u, updates, coef); err != nil {
			t.Fatalf("trial %d (m=%d): %v", trial, m, err)
		}

		s2 := NewLaplacian(g2, opt)
		for c := 0; c < k; c++ {
			col := make([]float64, n)
			bcol := make([]float64, n)
			for v := 0; v < n; v++ {
				col[v] = z[v*k+c]
				bcol[v] = y[v*k+c]
			}
			if res := s2.Residual(col, bcol); res > 1e-4 {
				t.Fatalf("trial %d (m=%d): corrected column %d has residual %g on the edited operator", trial, m, c, res)
			}
		}

		// The verification solve — the pipeline's tolerance contract —
		// must polish the corrected block to full tolerance in well
		// under a from-scratch solve's iterations (at the serving
		// tolerance of ~1e-5 it typically takes zero; at this test's
		// 1e-10 the √tol base solves leave half the digits to polish).
		stats, err := s2.SolveBlockWith(z, y, k, 1, true, 0, nil)
		if err != nil {
			t.Fatalf("trial %d (m=%d): verification solve: %v", trial, m, err)
		}
		cold := make([]float64, n*k)
		coldStats, err := s2.SolveBlock(cold, y, k, 1)
		if err != nil {
			t.Fatalf("trial %d (m=%d): cold reference solve: %v", trial, m, err)
		}
		for c, st := range stats {
			// PCG cost scales with the digits still missing, so √tol
			// base solves leave at most ~half-plus-overhead of the cold
			// iteration count; gate at three quarters.
			if st.Iterations > coldStats[c].Iterations*3/4 {
				t.Fatalf("trial %d (m=%d): verification of column %d took %d iterations, cold needs %d — the correction bought nothing",
					trial, m, c, st.Iterations, coldStats[c].Iterations)
			}
		}
		for c := 0; c < k; c++ {
			col := make([]float64, n)
			bcol := make([]float64, n)
			for v := 0; v < n; v++ {
				col[v] = z[v*k+c]
				bcol[v] = y[v*k+c]
			}
			if res := s2.Residual(col, bcol); res > 1e-9 {
				t.Fatalf("trial %d (m=%d): verified column %d has residual %g on the edited operator", trial, m, c, res)
			}
		}
	}
}

// When the right-hand sides change on the edited edges too (ΔY = B·S,
// the shared-projections property of the commute embedding), the same
// correction with a non-zero coefficient block must solve the new
// system L' z' = y + B·S.
func TestWoodburyCorrectWithRHSChange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, k, m = 50, 3, 3
	g := randomConnectedGraph(rng, n)
	opt := Options{Tol: 1e-10, Precond: PrecondTree}
	s := NewLaplacian(g, opt)
	y := blockRHS(rng, n, k)
	z := make([]float64, n*k)
	if _, err := s.SolveBlock(z, y, k, 1); err != nil {
		t.Fatal(err)
	}
	g2, updates := reweightEdits(rng, g, m)

	coef := make([]float64, m*k)
	for i := range coef {
		coef[i] = rng.NormFloat64()
	}
	// y2 = y + B·S.
	y2 := append([]float64(nil), y...)
	for e, up := range updates {
		for c := 0; c < k; c++ {
			y2[up.I*k+c] += coef[e*k+c]
			y2[up.J*k+c] -= coef[e*k+c]
		}
	}

	u, _, err := s.IncidenceSolves(updates, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WoodburyCorrect(z, k, u, updates, coef); err != nil {
		t.Fatal(err)
	}

	s2 := NewLaplacian(g2, opt)
	for c := 0; c < k; c++ {
		col := make([]float64, n)
		bcol := make([]float64, n)
		for v := 0; v < n; v++ {
			col[v] = z[v*k+c]
			bcol[v] = y2[v*k+c]
		}
		if res := s2.Residual(col, bcol); res > 1e-4 {
			t.Fatalf("corrected column %d has residual %g against the shifted RHS", c, res)
		}
	}
}

// Deleting a bridge splits a component: 1/Δw cancels against the
// edge's effective resistance and the capacitance matrix goes
// singular. WoodburyCorrect must refuse — leaving z untouched — so the
// caller falls back to a full solve. A tree makes the base solves
// exact (the tree preconditioner is the exact inverse), which drives
// the cancellation all the way down.
func TestWoodburyCorrectBridgeDeletionIsSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, k = 30, 2
	g := randomTree(rng, n)
	s := NewLaplacian(g, Options{Precond: PrecondTree})
	y := blockRHS(rng, n, k)
	z := make([]float64, n*k)
	if _, err := s.SolveBlock(z, y, k, 1); err != nil {
		t.Fatal(err)
	}
	saved := append([]float64(nil), z...)

	e := g.Edges()[rng.Intn(n-1)]
	updates := []EdgeUpdate{{I: e.I, J: e.J, DeltaW: -e.W}} // full deletion
	u, _, err := s.IncidenceSolves(updates, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WoodburyCorrect(z, k, u, updates, make([]float64, k)); err == nil {
		t.Fatal("bridge deletion did not trip the capacitance-singularity check")
	}
	for i := range z {
		if z[i] != saved[i] {
			t.Fatalf("failed correction modified z at %d", i)
		}
	}
}

func TestWoodburyCorrectRejectsZeroDelta(t *testing.T) {
	z := make([]float64, 4*2)
	u := make([]float64, 4*1)
	_, err := WoodburyCorrect(z, 2, u, []EdgeUpdate{{I: 0, J: 1, DeltaW: 0}}, make([]float64, 2))
	if err == nil {
		t.Fatal("zero-delta update accepted")
	}
}

func TestIncidenceSolvesValidatesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := randomConnectedGraph(rng, 10)
	s := NewLaplacian(g, Options{})
	for _, bad := range [][]EdgeUpdate{
		nil,
		{{I: 3, J: 3, DeltaW: 1}},
		{{I: -1, J: 2, DeltaW: 1}},
		{{I: 0, J: 10, DeltaW: 1}},
	} {
		if _, _, err := s.IncidenceSolves(bad, 1); err == nil {
			t.Fatalf("IncidenceSolves accepted %v", bad)
		}
	}
}

// Incidence solves run at √tol on the previous snapshot's solver; they
// must not overwrite the iteration history of its serving-tolerance
// block solve, which the next rebuild's drift check reads.
func TestIncidenceSolvesKeepDriftHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, k = 120, 6
	g := randomConnectedGraph(rng, n)
	s := NewLaplacian(g, Options{})
	if _, err := s.SolveBlock(make([]float64, n*k), blockRHS(rng, n, k), k, 1); err != nil {
		t.Fatal(err)
	}
	want := s.lastIters
	if want == 0 {
		t.Fatal("block solve recorded no iteration history")
	}
	edges := g.Edges()
	updates := []EdgeUpdate{
		{I: edges[0].I, J: edges[0].J, DeltaW: 0.5},
		{I: edges[7].I, J: edges[7].J, DeltaW: -0.25},
	}
	if _, _, err := s.IncidenceSolves(updates, 1); err != nil {
		t.Fatal(err)
	}
	if s.lastIters != want {
		t.Fatalf("IncidenceSolves changed the drift history: %g iterations per column, want %g", s.lastIters, want)
	}
}

// A pure reweight must take the patched-values fast path: shared CSR
// structure, shared component labelling, preconditioner updated at the
// edited entries only — and solve to the same answer as a cold build.
func TestNewLaplacianFromPatchesReweightJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomConnectedGraph(rng, 50)
	opt := Options{Precond: PrecondJacobi}
	prev := NewLaplacian(g, opt)
	g2, _ := reweightEdits(rng, g, 4)

	s := rebuildFrom(g2, g, prev, opt)
	if !s.ReusedPrecond() || s.reuseKind != "patched" {
		t.Fatalf("reweight-only diff took reuseKind %q, want patched", s.reuseKind)
	}
	cold := NewLaplacian(g2, opt)
	if s.l.NNZ() != cold.l.NNZ() {
		t.Fatalf("patched matrix has %d nnz, cold %d", s.l.NNZ(), cold.l.NNZ())
	}
	for i, v := range cold.l.Val {
		if math.Abs(s.l.Val[i]-v) > 1e-12*(math.Abs(v)+1) {
			t.Fatalf("patched value %d = %g, cold %g", i, s.l.Val[i], v)
		}
	}
	for i, v := range cold.invDiag {
		if math.Abs(s.invDiag[i]-v) > 1e-12*(math.Abs(v)+1) {
			t.Fatalf("patched invDiag[%d] = %g, cold %g", i, s.invDiag[i], v)
		}
	}

	b := projectedRHS(rng, 50)
	want, _, err := cold.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("patched solve differs at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// The same fast path must hold for the tree preconditioner when only
// weights change (forest edges get their patched weights).
func TestNewLaplacianFromPatchesReweightTree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := randomTree(rng, 40)
	opt := Options{Precond: PrecondTree}
	prev := NewLaplacian(g, opt)
	g2, _ := reweightEdits(rng, g, 3)

	s := rebuildFrom(g2, g, prev, opt)
	if !s.ReusedPrecond() || s.reuseKind != "patched" {
		t.Fatalf("tree reweight diff took reuseKind %q, want patched", s.reuseKind)
	}
	b := projectedRHS(rng, 40)
	want, _, err := NewLaplacian(g2, opt).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("patched tree solve differs at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// Insertions change the sparsity pattern, which the value-patching path
// cannot absorb: a Jacobi-preconditioned solver must fall back to a
// cold build (the tree path has its own forest-patch rules, pinned by
// TestNewLaplacianFromPatchesForest).
func TestNewLaplacianFromInsertFallsColdOnJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomConnectedGraph(rng, 30)
	opt := Options{Precond: PrecondJacobi}
	prev := NewLaplacian(g, opt)

	b := copyGraph(g)
	for added := 0; added < 2; {
		i, j := rng.Intn(30), rng.Intn(30)
		if i != j && g.Weight(i, j) == 0 {
			b.SetEdge(i, j, 1)
			added++
		}
	}
	g2 := b.MustBuild()
	s := rebuildFrom(g2, g, prev, opt)
	if s.ReusedPrecond() {
		t.Fatalf("insert diff reused the preconditioner (kind %q), want cold", s.reuseKind)
	}
}

func TestComponentsAccessorMatchesGraph(t *testing.T) {
	b := graph.NewBuilder(9)
	// A triangle, a path, and three isolated vertices.
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g := b.MustBuild()
	s := NewLaplacian(g, Options{})
	comp, ncomp := s.Components()
	wantComp, wantN := g.Components()
	if ncomp != wantN {
		t.Fatalf("Components count = %d, graph says %d", ncomp, wantN)
	}
	for i := range comp {
		if comp[i] != wantComp[i] {
			t.Fatalf("Components[%d] = %d, graph says %d", i, comp[i], wantComp[i])
		}
	}
}
