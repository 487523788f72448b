package experiments

import (
	"fmt"
	"time"

	"dyngraph/internal/commute"
	"dyngraph/internal/datagen"
	"dyngraph/internal/graph"
	"dyngraph/internal/solver"
)

// Ablation quantifies the repository's own design choices (DESIGN.md §4)
// on the two workload shapes CAD actually runs on:
//
//   - preconditioner choice (tree / Jacobi / auto) for the embedding's
//     Laplacian solves, on a sparse m≈n random graph and on a dense
//     Gaussian-mixture similarity graph;
//   - exact pseudoinverse vs k-dimensional embedding for the
//     commute-time oracle, as build-time cost.

// AblationConfig sizes the measurement.
type AblationConfig struct {
	// SparseN is the sparse random graph's vertex count (default 20000).
	SparseN int
	// DenseN is the GMM similarity graph's point count (default 500).
	DenseN int
	// K is the embedding dimension (default 10, the scalability
	// experiment's setting).
	K int
	// Seed drives the workloads.
	Seed int64
}

func (c AblationConfig) withDefaults() AblationConfig {
	if c.SparseN <= 0 {
		c.SparseN = 20000
	}
	if c.DenseN <= 0 {
		c.DenseN = 500
	}
	if c.K <= 0 {
		c.K = 10
	}
	return c
}

// AblationRow is one measured cell.
type AblationRow struct {
	Workload string
	Choice   string
	Seconds  float64
	Err      error
}

// AblationResult holds all rows.
type AblationResult struct {
	Config AblationConfig
	Rows   []AblationRow
}

// Ablation runs the measurement.
func Ablation(cfg AblationConfig) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	res := &AblationResult{Config: cfg}

	sparseSeq := datagen.RandomSequence(datagen.RandomConfig{N: cfg.SparseN, Seed: cfg.Seed})
	sparseG := sparseSeq.At(0)
	denseG := datagen.GMM(datagen.GMMConfig{N: cfg.DenseN, Seed: cfg.Seed}).Seq.At(0)

	type job struct {
		name string
		g    *graph.Graph
	}
	jobs := []job{
		{fmt.Sprintf("sparse-random n=%d m=%d", sparseG.N(), sparseG.NumEdges()), sparseG},
		{fmt.Sprintf("gmm-similarity n=%d m=%d", denseG.N(), denseG.NumEdges()), denseG},
	}

	// Preconditioner ablation on embedding builds. A generous MaxIter
	// so slow choices finish rather than error; wall clock is the
	// verdict either way.
	for _, j := range jobs {
		for _, prec := range []solver.Precond{solver.PrecondAuto, solver.PrecondTree, solver.PrecondJacobi} {
			start := time.Now()
			_, err := commute.NewEmbedding(j.g, nil, commute.Config{
				K:      cfg.K,
				Seed:   cfg.Seed,
				Solver: solver.Options{Precond: prec, MaxIter: 5000000},
			}, nil)
			res.Rows = append(res.Rows, AblationRow{
				Workload: j.name,
				Choice:   "embedding/" + prec.String(),
				Seconds:  time.Since(start).Seconds(),
				Err:      err,
			})
		}
	}

	// Oracle ablation: exact vs embedding on the dense workload (the
	// size regime where both are feasible).
	start := time.Now()
	_ = commute.NewExact(denseG)
	res.Rows = append(res.Rows, AblationRow{
		Workload: jobs[1].name,
		Choice:   "oracle/exact",
		Seconds:  time.Since(start).Seconds(),
	})
	start = time.Now()
	if _, err := commute.NewEmbedding(denseG, nil, commute.Config{K: 50, Seed: cfg.Seed}, nil); err != nil {
		res.Rows = append(res.Rows, AblationRow{Workload: jobs[1].name, Choice: "oracle/embedding-k50", Err: err})
	} else {
		res.Rows = append(res.Rows, AblationRow{
			Workload: jobs[1].name,
			Choice:   "oracle/embedding-k50",
			Seconds:  time.Since(start).Seconds(),
		})
	}
	return res, nil
}

// Table renders the measurement.
func (r *AblationResult) Table() *Table {
	t := &Table{
		Title:  "Design-choice ablation: commute-oracle build seconds per (workload, choice)",
		Header: []string{"workload", "choice", "seconds"},
	}
	for _, row := range r.Rows {
		cell := fmt.Sprintf("%.3f", row.Seconds)
		if row.Err != nil {
			cell = "error: " + row.Err.Error()
		}
		t.Rows = append(t.Rows, []string{row.Workload, row.Choice, cell})
	}
	return t
}
