package commute

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
)

// incCfg is the incremental-path test configuration: shared
// projections (required), incremental updates on, K=12 so the default
// edit budget is 3.
func incCfg() Config {
	return Config{K: 12, Seed: 9, SharedProjections: true, IncrementalUpdates: true}
}

// warmCfg is cfg with the low-rank path off, so a build from a previous
// embedding takes the warm blocked solve.
func warmCfg(cfg Config) Config {
	cfg.IncrementalUpdates = false
	return cfg
}

// reweightSome returns g with m existing edges reweighted (support
// unchanged).
func reweightSome(rng *rand.Rand, g *graph.Graph, m int) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.SetEdge(e.I, e.J, e.W)
	}
	edges := g.Edges()
	for _, idx := range rng.Perm(len(edges))[:m] {
		e := edges[idx]
		b.SetEdge(e.I, e.J, 0.5+rng.Float64())
	}
	return b.MustBuild()
}

// distancesAgree samples vertex pairs and fails when the two oracles'
// commute distances drift beyond the solver-tolerance bound.
func distancesAgree(t *testing.T, a, b *Embedding, g *graph.Graph, what string) {
	t.Helper()
	rng := rand.New(rand.NewSource(101))
	scale := g.Volume()
	for trial := 0; trial < 1000; trial++ {
		i, j := rng.Intn(g.N()), rng.Intn(g.N())
		da, db := a.Distance(i, j), b.Distance(i, j)
		if math.Abs(da-db) > 1e-5*scale {
			t.Fatalf("%s: distance(%d,%d) = %g vs %g", what, i, j, da, db)
		}
	}
}

// A small reweight must take the incremental path — mode recorded, one
// base solve per edit — and agree with both the warm and the cold
// build of the edited graph at solver tolerance.
func TestIncrementalReweightAgreesWithWarmAndCold(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g0 := benchGraph(400)
	g1 := reweightSome(rng, g0, 2)
	cfg := incCfg()

	prev, err := NewEmbedding(g0, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Stats().Mode != "cold" {
		t.Fatalf("first build mode = %q, want cold", prev.Stats().Mode)
	}
	if prev.y == nil {
		t.Fatal("IncrementalUpdates build did not retain its RHS block")
	}

	inc, err := NewEmbedding(g1, prev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := inc.Stats()
	if st.Mode != "incremental" {
		t.Fatalf("2-edge reweight mode = %q, want incremental", st.Mode)
	}
	if st.BaseSolves != 2 {
		t.Fatalf("BaseSolves = %d, want 2", st.BaseSolves)
	}
	if !st.Warm {
		t.Fatal("incremental build must report Warm")
	}

	warm, err := NewEmbedding(g1, prev, warmCfg(cfg), nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewEmbedding(g1, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	distancesAgree(t, inc, warm, g1, "incremental vs warm")
	distancesAgree(t, inc, cold, g1, "incremental vs cold")

	// The point of the exercise: the corrected block should pass
	// verification without (or nearly without) block iterations, far
	// below the warm build's count.
	if wi, ii := warm.Stats().BlockIterations, st.BlockIterations; ii >= wi && wi > 0 {
		t.Errorf("incremental took %d block iterations, warm %d — no saving", ii, wi)
	}
}

// Insert/delete edits that keep the component structure must still be
// absorbed by the low-rank path.
func TestIncrementalInsertDeleteWithinComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g0 := benchGraph(400)
	// Delete one non-bridge edge and insert a fresh one. benchGraph has
	// ~4n edges so a random deletion is almost surely not a bridge;
	// verify connectivity to be safe.
	var g1 *graph.Graph
	for {
		b := graph.NewBuilder(g0.N())
		for _, e := range g0.Edges() {
			b.SetEdge(e.I, e.J, e.W)
		}
		edges := g0.Edges()
		e := edges[rng.Intn(len(edges))]
		b.SetEdge(e.I, e.J, 0)
		i, j := rng.Intn(g0.N()), rng.Intn(g0.N())
		if i == j || g0.Weight(i, j) != 0 {
			continue
		}
		b.SetEdge(i, j, 1.5)
		g1 = b.MustBuild()
		if _, nc := g1.Components(); nc == 1 {
			break
		}
	}
	cfg := incCfg()
	prev, err := NewEmbedding(g0, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewEmbedding(g1, prev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats().Mode != "incremental" {
		t.Fatalf("component-preserving insert+delete mode = %q, want incremental", inc.Stats().Mode)
	}
	cold, err := NewEmbedding(g1, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	distancesAgree(t, inc, cold, g1, "insert+delete vs cold")
}

// Edits past the budget must fall back to the warm path automatically.
func TestIncrementalBudgetFallsBackToWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g0 := benchGraph(400)
	g1 := reweightSome(rng, g0, 10) // budget is k/4 = 3
	cfg := incCfg()
	prev, err := NewEmbedding(g0, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := NewEmbedding(g1, prev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := emb.Stats(); st.Mode != "warm" || st.BaseSolves != 0 {
		t.Fatalf("over-budget edit took mode %q (%d base solves), want warm", st.Mode, st.BaseSolves)
	}
	// And a raised budget accepts the same edit.
	cfg.IncrementalMaxEdits = 16
	emb2, err := NewEmbedding(g1, prev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := emb2.Stats(); st.Mode != "incremental" {
		t.Fatalf("raised budget still took mode %q", st.Mode)
	}
}

// A component split (bridge deletion) must be rejected by the
// null-space gate and fall back to the warm path — which handles it
// correctly.
func TestIncrementalComponentSplitFallsBack(t *testing.T) {
	const half = 200
	b := graph.NewBuilder(2 * half)
	rng := rand.New(rand.NewSource(59))
	for side := 0; side < 2; side++ {
		off := side * half
		perm := rng.Perm(half)
		for i := 1; i < half; i++ {
			b.AddEdge(off+perm[i-1], off+perm[i], 0.5+rng.Float64())
		}
		for k := 0; k < 2*half; k++ {
			i, j := rng.Intn(half), rng.Intn(half)
			if i != j {
				b.SetEdge(off+i, off+j, 0.5+rng.Float64())
			}
		}
	}
	b.SetEdge(0, half, 1) // the bridge
	g0 := b.MustBuild()
	b.SetEdge(0, half, 0)
	g1 := b.MustBuild() // two components

	cfg := incCfg()
	prev, err := NewEmbedding(g0, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := NewEmbedding(g1, prev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := emb.Stats(); st.Mode != "warm" {
		t.Fatalf("bridge deletion took mode %q, want warm fallback", st.Mode)
	}
	cold, err := NewEmbedding(g1, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	distancesAgree(t, emb, cold, g1, "split fallback vs cold")

	// The reverse edit — re-inserting the bridge merges two components —
	// must equally fall back.
	prev2, err := NewEmbedding(g1, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := NewEmbedding(g0, prev2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := merged.Stats(); st.Mode != "warm" {
		t.Fatalf("component merge took mode %q, want warm fallback", st.Mode)
	}
}

// An unchanged snapshot must stay bit-identical and free with the
// incremental machinery enabled (the diff is empty, so the warm path's
// converged-guess early exit still runs).
func TestIncrementalUnchangedGraphBitIdentical(t *testing.T) {
	g := benchGraph(300)
	cfg := incCfg()
	prev, err := NewEmbedding(g, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := NewEmbedding(g, prev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := emb.Stats(); st.Mode != "warm" || st.PCGIterations != 0 {
		t.Fatalf("unchanged rebuild: mode %q, %d iterations, want warm / 0", st.Mode, st.PCGIterations)
	}
	for i := range prev.z {
		if emb.z[i] != prev.z[i] {
			t.Fatalf("embedding changed at %d on an unchanged graph", i)
		}
	}
}

// The verify-skip: across a chain of single-edge reweights the
// residual certificate must (a) skip most verification solves and
// (b) stay honest — on every skipped push, actually running the
// verification solve returns the block bit-for-bit unchanged after
// zero iterations, i.e. the skip changed nothing. The serving
// tolerance is 1e-5 (the streaming configuration); at the solver
// default 1e-8 the √tol base solves leave no certificate headroom and
// every push verifies.
func TestIncrementalVerifySkipIsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := benchGraph(400)
	cfg := incCfg()
	cfg.Solver.Tol = 1e-5
	prev, err := NewEmbedding(g, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for push := 0; push < 30; push++ {
		g = reweightSome(rng, g, 1)
		emb, err := NewEmbedding(g, prev, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st := emb.Stats(); st.Mode == "incremental" && st.VerifySkipped {
			skipped++
			zc := append([]float64(nil), emb.z...)
			stats, err := emb.lap.SolveBlockWith(zc, emb.y, emb.k, 1, true, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for c, cs := range stats {
				if cs.Iterations != 0 {
					t.Fatalf("push %d: skipped verification would have run %d iterations on column %d", push, cs.Iterations, c)
				}
			}
			for i := range zc {
				if zc[i] != emb.z[i] {
					t.Fatalf("push %d: skipped verification would have changed z[%d]", push, i)
				}
			}
		}
		prev = emb
	}
	if skipped < 10 {
		t.Fatalf("verify skipped on %d/30 pushes, want at least 10", skipped)
	}
}

// The incremental embedding must be identical for any Workers value,
// like the other build paths.
func TestIncrementalWorkersInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g0 := benchGraph(300)
	g1 := reweightSome(rng, g0, 2)
	cfg := incCfg()
	prev, err := NewEmbedding(g0, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewEmbedding(g1, prev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgPar := cfg
	cfgPar.Workers = 4
	par, err := NewEmbedding(g1, prev, cfgPar, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats().Mode != "incremental" || par.Stats().Mode != "incremental" {
		t.Fatalf("modes %q/%q, want incremental", seq.Stats().Mode, par.Stats().Mode)
	}
	for i := range seq.z {
		if seq.z[i] != par.z[i] {
			t.Fatalf("workers changed the incremental embedding at %d", i)
		}
	}
}

// Differential fuzz: a random edit stream holds three oracle chains —
// incremental, warm, per-step cold — in agreement at solver tolerance,
// whatever mix of modes the heuristic picks along the way.
func TestIncrementalFuzzAgainstWarmAndCold(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	g := benchGraph(300)
	cfg := incCfg()

	incChain, err := NewEmbedding(g, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmChain, err := NewEmbedding(g, nil, warmCfg(cfg), nil)
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string]int{}
	const steps = 12
	for step := 0; step < steps; step++ {
		g = editGraph(rng, g, 1+rng.Intn(3))
		incChain, err = NewEmbedding(g, incChain, cfg, nil)
		if err != nil {
			t.Fatalf("step %d incremental: %v", step, err)
		}
		modes[incChain.Stats().Mode]++
		warmChain, err = NewEmbedding(g, warmChain, warmCfg(cfg), nil)
		if err != nil {
			t.Fatalf("step %d warm: %v", step, err)
		}
		cold, err := NewEmbedding(g, nil, cfg, nil)
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		distancesAgree(t, incChain, warmChain, g, "fuzz inc vs warm")
		distancesAgree(t, incChain, cold, g, "fuzz inc vs cold")
	}
	if modes["incremental"] == 0 {
		t.Fatalf("no step took the incremental path: %v", modes)
	}
}

// With SparsifyTargetNNZ set, a dense snapshot is capped before the
// solver sees it — but never the first build, which has no resistance
// estimates yet.
func TestIncrementalSparsifiesDenseSnapshots(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(71))
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(perm[i-1], perm[i], 0.5+rng.Float64())
	}
	for k := 0; k < 10*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.SetEdge(i, j, 0.5+rng.Float64())
		}
	}
	g0 := b.MustBuild()
	g1 := reweightSome(rng, g0, 2)

	cfg := incCfg()
	cfg.SparsifyTargetNNZ = g0.NumEdges() // ≈ half the 2m stored entries
	prev, err := NewEmbedding(g0, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Stats().SparsifiedEdges != 0 {
		t.Fatalf("first build sparsified %d edges, want 0", prev.Stats().SparsifiedEdges)
	}
	emb, err := NewEmbedding(g1, prev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := emb.Stats()
	if st.SparsifiedEdges == 0 {
		t.Fatal("dense snapshot was not sparsified")
	}
	if got := emb.g.NumEdges(); got >= g1.NumEdges() {
		t.Fatalf("sparsified graph has %d edges, original %d", got, g1.NumEdges())
	}
	// The sparsifier approximates the graph spectrally; distances stay
	// in the right ballpark (loose statistical bound, deterministic
	// seeds).
	full, err := NewEmbedding(g1, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var relErr float64
	const pairs = 300
	for p := 0; p < pairs; p++ {
		i, j := rng.Intn(n), rng.Intn(n)
		for i == j {
			j = rng.Intn(n)
		}
		df, ds := full.Distance(i, j), emb.Distance(i, j)
		relErr += math.Abs(ds-df) / (df + 1e-12)
	}
	if avg := relErr / pairs; avg > 0.6 {
		t.Fatalf("sparsified distances drifted %.0f%% on average", 100*avg)
	}
}

// Tracing never changes results: one builder serves traced and
// untraced callers, so a cold → warm → incremental chain (verified and
// verify-skipped pushes both) built under a live span and under a nil
// one must agree bit-for-bit in z and exactly in BuildStats at every
// step, while the live span records each path's stages.
func TestTracingNeverChangesResults(t *testing.T) {
	cfg := incCfg()
	cfg.Solver.Tol = 1e-5
	rng := rand.New(rand.NewSource(73))
	graphs := []*graph.Graph{benchGraph(400)}
	graphs = append(graphs, reweightSome(rng, graphs[0], 10)) // over budget: warm
	for i := 0; i < 12; i++ {
		graphs = append(graphs, reweightSome(rng, graphs[len(graphs)-1], 1))
	}
	tracer := obs.NewTracer(len(graphs))
	var traced, plain *Embedding
	modes := map[string]int{}
	for step, g := range graphs {
		root := tracer.Start("oracle")
		a, err := NewEmbedding(g, traced, cfg, root)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewEmbedding(g, plain, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("step %d: traced stats %+v, untraced %+v", step, a.Stats(), b.Stats())
		}
		for i := range a.z {
			if a.z[i] != b.z[i] {
				t.Fatalf("step %d: traced z[%d] = %g, untraced %g", step, i, a.z[i], b.z[i])
			}
		}
		mode := a.Stats().Mode
		if a.Stats().VerifySkipped {
			mode += "/skipped"
		} else if mode == "incremental" {
			mode += "/verified"
		}
		modes[mode]++
		var stages []string
		for _, c := range root.Children() {
			stages = append(stages, c.Name())
		}
		want := map[string][]string{
			"cold":                 {"precond", "projection", "pcg"},
			"warm":                 {"precond", "projection", "pcg"},
			"incremental/verified": {"precond", "woodbury", "pcg"},
			"incremental/skipped":  {"precond", "woodbury"},
		}[mode]
		if fmt.Sprint(stages) != fmt.Sprint(want) {
			t.Fatalf("step %d (%s): spans %v, want %v", step, mode, stages, want)
		}
		traced, plain = a, b
	}
	for _, m := range []string{"cold", "warm", "incremental/verified", "incremental/skipped"} {
		if modes[m] == 0 {
			t.Fatalf("chain never took %s: %v", m, modes)
		}
	}
}
