package commute

import (
	"math"
	"math/rand"
	"testing"

	"dyngraph/internal/graph"
	"dyngraph/internal/solver"
)

// serialReference is the oracle the blocked build is held to: k
// independent single-column solves, each assembling its own projection
// row and — when prev is given — warm-starting from prev's solution for
// that row, on a solver built the way the embedding's own is. It
// returns the n×k block and the total PCG iterations.
func serialReference(t *testing.T, g *graph.Graph, prev *Embedding, cfg Config) ([]float64, int) {
	t.Helper()
	n, k := g.N(), cfg.k()
	var lap *solver.Laplacian
	if prev == nil {
		lap = solver.NewLaplacian(g, cfg.Solver)
	} else {
		diff, err := graph.DiffSupport(prev.g, g)
		if err != nil {
			t.Fatal(err)
		}
		lap = solver.NewLaplacianFrom(g, prev.g, prev.lap, diff, cfg.Solver, nil)
	}
	z := make([]float64, n*k)
	scale := 1 / math.Sqrt(float64(k))
	iters := 0
	for row := 0; row < k; row++ {
		y := make([]float64, n)
		projectionRHS(y, 1, 0, row, g.Edges(), cfg, scale)
		x := make([]float64, n)
		if prev != nil {
			for i := range x {
				x[i] = prev.z[i*k+row]
			}
			if !sameComponents(lap, prev.lap) {
				lap.ProjectBlock(x, 1)
			}
		}
		st, err := lap.SolveBlockWith(x, y, 1, 1, prev != nil, 0, nil)
		if err != nil {
			t.Fatalf("reference row %d: %v", row, err)
		}
		iters += st[0].Iterations
		for i, v := range x {
			z[i*k+row] = v
		}
	}
	return z, iters
}

// The block build path must reproduce k single-column solves
// bit-for-bit: the blocked PCG performs the same per-column arithmetic
// in the same order, cold and warm, for both projection modes.
func TestBlockBuildMatchesPerRowBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g0 := benchGraph(250)
	g1 := editGraph(rng, g0, 5)
	for _, shared := range []bool{false, true} {
		cfg := Config{K: 9, Seed: 13, SharedProjections: shared}
		blk, err := NewEmbedding(g0, nil, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, refIters := serialReference(t, g0, nil, cfg)
		if blk.stats.PCGIterations != refIters {
			t.Fatalf("shared=%v: block build took %d PCG iterations, per-row %d",
				shared, blk.stats.PCGIterations, refIters)
		}
		for i := range blk.z {
			if blk.z[i] != ref[i] {
				t.Fatalf("shared=%v: cold build differs at %d: %g vs %g", shared, i, blk.z[i], ref[i])
			}
		}
		if !shared {
			continue
		}
		// Warm rebuild across an edit: both paths start every column
		// from blk's solutions and must stay bit-identical.
		wref, _ := serialReference(t, g1, blk, cfg)
		wblk, err := NewEmbedding(g1, blk, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !wblk.stats.Warm {
			t.Fatal("warm rebuild did not take the warm path")
		}
		for i := range wblk.z {
			if wblk.z[i] != wref[i] {
				t.Fatalf("warm build differs at %d: %g vs %g", i, wblk.z[i], wref[i])
			}
		}
	}
}

// The block solver must report its traversal count: BlockIterations is
// the max per-row iteration count, positive on a real build, no larger
// than the per-row total, and zero on the free unchanged-graph rebuild.
func TestBlockIterationsStats(t *testing.T) {
	g := benchGraph(300)
	cfg := Config{K: 8, Seed: 3, SharedProjections: true}
	cold, err := NewEmbedding(g, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.BlockIterations <= 0 {
		t.Fatalf("cold build BlockIterations = %d, want > 0", st.BlockIterations)
	}
	if st.BlockIterations > st.PCGIterations {
		t.Fatalf("BlockIterations %d exceeds total PCGIterations %d", st.BlockIterations, st.PCGIterations)
	}
	warm, err := NewEmbedding(g, cold, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.BlockIterations != 0 || st.PCGIterations != 0 {
		t.Fatalf("unchanged-graph rebuild did work: %+v", st)
	}
}

// Workers shards SpMM rows inside the block solve; any worker count
// must yield the bit-identical embedding (the guarantee the old
// whole-solve sharding provided, preserved by row ownership). Run with
// -race this also gates the parallel SpMM for data races.
func TestBlockWorkersBitIdentical(t *testing.T) {
	g := benchGraph(700) // above the parallel kernel's serial cutoff
	cfg := Config{K: 6, Seed: 11, SharedProjections: true}
	seq, err := NewEmbedding(g, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		cfgw := cfg
		cfgw.Workers = w
		par, err := NewEmbedding(g, nil, cfgw, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq.z {
			if par.z[i] != seq.z[i] {
				t.Fatalf("workers=%d changed the embedding at %d: %g vs %g", w, i, par.z[i], seq.z[i])
			}
		}
	}
}
