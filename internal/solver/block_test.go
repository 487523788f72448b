package solver

import (
	"errors"
	"math/rand"
	"testing"
)

// blockOf packs k column vectors into a row-major n×k block.
func blockOf(cols [][]float64) []float64 {
	n, k := len(cols[0]), len(cols)
	x := make([]float64, n*k)
	for c, col := range cols {
		for i, v := range col {
			x[i*k+c] = v
		}
	}
	return x
}

// column extracts column c of a row-major n×k block.
func column(x []float64, k, c int) []float64 {
	out := make([]float64, 0, len(x)/k)
	for i := 0; i*k < len(x); i++ {
		out = append(out, x[i*k+c])
	}
	return out
}

// SolveBlock must agree with k sequential single-vector solves — not just
// within tolerance but bit-for-bit, because the block kernels perform
// the same per-column arithmetic in the same order. The property test
// sweeps random graphs (including disconnected ones), both
// preconditioners, plain CG, and every workers value.
func TestSolveBlockMatchesSequentialBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 25; trial++ {
		n := 15 + rng.Intn(60)
		g := randomConnectedGraph(rng, n)
		if trial%4 == 3 {
			g = perturbGraph(rng, g, 6) // may disconnect or reweight
		}
		k := 1 + rng.Intn(7)
		precond := []Precond{PrecondTree, PrecondJacobi, PrecondNone}[trial%3]
		opt := Options{Precond: precond}

		cols := make([][]float64, k)
		for c := range cols {
			cols[c] = projectedRHS(rng, n)
		}
		b := blockOf(cols)

		seq := NewLaplacian(g, opt)
		want := make([][]float64, k)
		wantStats := make([]Stats, k)
		var wantErr bool
		for c := range cols {
			x := make([]float64, n)
			st, err := seq.solve(x, cols[c], false, 0, 0)
			want[c], wantStats[c] = x, st
			if err != nil {
				wantErr = true
			}
		}

		blk := NewLaplacian(g, opt)
		x := make([]float64, n*k)
		workers := 1 + rng.Intn(4)
		stats, err := blk.SolveBlock(x, b, k, workers)
		if (err != nil) != wantErr {
			t.Fatalf("trial %d: block err %v, sequential err %v", trial, err, wantErr)
		}
		if err != nil && !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("trial %d: unexpected error type %v", trial, err)
		}
		for c := 0; c < k; c++ {
			if stats[c] != wantStats[c] {
				t.Fatalf("trial %d (%s) col %d: stats %+v, want %+v", trial, precond, c, stats[c], wantStats[c])
			}
			got := column(x, k, c)
			for i := range got {
				if got[i] != want[c][i] {
					t.Fatalf("trial %d (%s, workers=%d) col %d row %d: %g != %g",
						trial, precond, workers, c, i, got[i], want[c][i])
				}
			}
		}
	}
}

// Warm-started block solves must match k sequential warm single-vector
// solves bit-for-bit, including the converged-guess early exit that
// returns a column untouched with zero iterations.
func TestSolveBlockFromMatchesSequentialBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(50)
		g0 := randomConnectedGraph(rng, n)
		g1 := perturbGraph(rng, g0, 3)
		k := 2 + rng.Intn(5)
		opt := Options{}

		// Previous-snapshot solutions as guesses; column 0 keeps the
		// old graph's solution against the *old* graph when the edit
		// left it converged, exercising the early exit.
		prev := NewLaplacian(g0, opt)
		cols := make([][]float64, k)
		guesses := make([][]float64, k)
		for c := range cols {
			cols[c] = projectedRHS(rng, n)
			x, _, err := prev.Solve(cols[c])
			if err != nil {
				t.Fatal(err)
			}
			guesses[c] = x
		}

		seq := NewLaplacian(g1, opt)
		want := make([][]float64, k)
		wantStats := make([]Stats, k)
		for c := range cols {
			x := append([]float64(nil), guesses[c]...)
			st, err := seq.solve(x, cols[c], true, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			want[c], wantStats[c] = x, st
		}

		blk := NewLaplacian(g1, opt)
		x := blockOf(guesses)
		b := blockOf(cols)
		stats, err := blk.SolveBlockWith(x, b, k, 1+rng.Intn(3), true, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < k; c++ {
			if stats[c] != wantStats[c] {
				t.Fatalf("trial %d col %d: stats %+v, want %+v", trial, c, stats[c], wantStats[c])
			}
			got := column(x, k, c)
			for i := range got {
				if got[i] != want[c][i] {
					t.Fatalf("trial %d col %d row %d: %g != %g", trial, c, i, got[i], want[c][i])
				}
			}
		}
	}
}

// A warm block start from the already-converged solutions must return
// the block unchanged with zero iterations on every column.
func TestSolveBlockFromConvergedBlockIsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n, k := 50, 5
	g := randomConnectedGraph(rng, n)
	s := NewLaplacian(g, Options{})
	cols := make([][]float64, k)
	sols := make([][]float64, k)
	for c := range cols {
		cols[c] = projectedRHS(rng, n)
		x, _, err := s.Solve(cols[c])
		if err != nil {
			t.Fatal(err)
		}
		sols[c] = x
	}
	x := blockOf(sols)
	saved := append([]float64(nil), x...)
	stats, err := s.SolveBlockWith(x, blockOf(cols), k, 2, true, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c, st := range stats {
		if st.Iterations != 0 {
			t.Fatalf("col %d: %d iterations on a converged guess", c, st.Iterations)
		}
	}
	for i := range x {
		if x[i] != saved[i] {
			t.Fatalf("converged block changed at %d", i)
		}
	}
}

// A zero right-hand-side column must come back as the zero vector (the
// minimum-norm solution) without disturbing its neighbours.
func TestSolveBlockZeroColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	n, k := 40, 3
	g := randomConnectedGraph(rng, n)
	s := NewLaplacian(g, Options{})
	cols := [][]float64{projectedRHS(rng, n), make([]float64, n), projectedRHS(rng, n)}
	x := make([]float64, n*k)
	for i := range x {
		x[i] = rng.NormFloat64() // garbage that must be overwritten
	}
	stats, err := s.SolveBlock(x, blockOf(cols), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats[1].Iterations != 0 || stats[1].Residual != 0 {
		t.Fatalf("zero column stats %+v", stats[1])
	}
	for i, v := range column(x, k, 1) {
		if v != 0 {
			t.Fatalf("zero column solution nonzero at %d: %g", i, v)
		}
	}
	for _, c := range []int{0, 2} {
		if r := s.Residual(column(x, k, c), cols[c]); r > 1e-6 {
			t.Fatalf("col %d residual %g", c, r)
		}
	}
}

// Reusing one solver for different block widths must not cross-feed
// scratch state between calls.
func TestSolveBlockScratchReuseAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 45
	g := randomConnectedGraph(rng, n)
	s := NewLaplacian(g, Options{})
	for _, k := range []int{6, 2, 4, 1} {
		cols := make([][]float64, k)
		for c := range cols {
			cols[c] = projectedRHS(rng, n)
		}
		x := make([]float64, n*k)
		if _, err := s.SolveBlock(x, blockOf(cols), k, 1); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for c := range cols {
			if r := s.Residual(column(x, k, c), cols[c]); r > 1e-6 {
				t.Fatalf("k=%d col %d residual %g", k, c, r)
			}
		}
	}
}

// Dimension errors must be reported, not panic.
func TestSolveBlockDimensionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	g := randomConnectedGraph(rng, 10)
	s := NewLaplacian(g, Options{})
	if _, err := s.SolveBlock(make([]float64, 10), make([]float64, 10), 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := s.SolveBlock(make([]float64, 10), make([]float64, 20), 2, 1); err == nil {
		t.Fatal("short x accepted")
	}
}
