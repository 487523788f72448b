package experiments

import (
	"fmt"
	"time"

	"dyngraph/internal/act"
	"dyngraph/internal/centrality"
	"dyngraph/internal/commute"
	"dyngraph/internal/core"
	"dyngraph/internal/datagen"
	"dyngraph/internal/graph"
)

// ScaleConfig shapes experiment E7 (§4.1.3, the scalability study).
type ScaleConfig struct {
	// Sizes is the list of vertex counts to sweep. Empty selects
	// {1000, 5000, 20000, 50000}; the paper goes to 10⁷ on a 32 GB
	// workstation — raise the list if you have the time and memory
	// (behaviour stays near-linear).
	Sizes []int
	// EdgesPerNode is the sparsity: m ≈ EdgesPerNode·n. The paper
	// sweeps 1 (their "sparsity 1/n") and stresses CLC with 10.
	EdgesPerNode float64
	// K is the embedding dimension; the paper uses k=10 here after the
	// Figure 5 robustness finding.
	K int
	// CLCSamplePivots bounds CLC's Dijkstra sources; exact all-sources
	// closeness is Θ(n·m log n) and would dwarf every other method at
	// these sizes. Zero selects 64.
	CLCSamplePivots int
	// Trials averages each (method, size) cell. Zero selects 3
	// (the paper averages 10).
	Trials int
	// Family selects the random-graph topology (uniform — the paper's
	// choice — preferential attachment, or small world).
	Family datagen.Family
	// Seed drives the random graphs.
	Seed int64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1000, 5000, 20000, 50000}
	}
	if c.EdgesPerNode <= 0 {
		c.EdgesPerNode = 1
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.CLCSamplePivots <= 0 {
		c.CLCSamplePivots = 64
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Family == "" {
		c.Family = datagen.FamilyUniform
	}
	return c
}

// ScaleResult holds per-method mean runtimes for each size.
type ScaleResult struct {
	Config  ScaleConfig
	Sizes   []int
	Edges   []int                // measured m of instance 0 per size
	Seconds map[string][]float64 // method → per-size mean seconds
}

// Scale runs experiment E7: wall-clock time to score one transition
// for each method at each size.
func Scale(cfg ScaleConfig) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	res := &ScaleResult{
		Config:  cfg,
		Sizes:   cfg.Sizes,
		Edges:   make([]int, len(cfg.Sizes)),
		Seconds: make(map[string][]float64),
	}
	for _, m := range Methods() {
		res.Seconds[m] = make([]float64, len(cfg.Sizes))
	}
	for si, n := range cfg.Sizes {
		for trial := 0; trial < cfg.Trials; trial++ {
			seq := datagen.FamilySequence(cfg.Family, datagen.RandomConfig{
				N:            n,
				EdgesPerNode: cfg.EdgesPerNode,
				Seed:         cfg.Seed + int64(si*1000+trial),
			})
			res.Edges[si] = seq.At(0).NumEdges()
			for _, method := range Methods() {
				dt, err := timeMethod(method, seq, cfg, trial)
				if err != nil {
					return nil, fmt.Errorf("scale n=%d method %s: %w", n, method, err)
				}
				res.Seconds[method][si] += dt.Seconds() / float64(cfg.Trials)
			}
		}
	}
	return res, nil
}

// timeMethod measures one method's end-to-end transition-scoring time,
// including commute-time work where applicable.
func timeMethod(method string, seq *graph.Sequence, cfg ScaleConfig, trial int) (time.Duration, error) {
	g0, g1 := seq.At(0), seq.At(1)
	n := seq.N()
	seed := cfg.Seed + int64(trial)
	start := time.Now()
	switch method {
	case MethodCAD, MethodCOM:
		variant := core.VariantCAD
		if method == MethodCOM {
			variant = core.VariantCOM
		}
		// Always use the embedding here: the experiment is about the
		// O(n log n) large-graph path.
		o0, err := commute.NewEmbedding(g0, nil, commute.Config{K: cfg.K, Seed: seed}, nil)
		if err != nil {
			return 0, err
		}
		o1, err := commute.NewEmbedding(g1, nil, commute.Config{K: cfg.K, Seed: seed + 1}, nil)
		if err != nil {
			return 0, err
		}
		// COM at scale uses the changed-adjacency support (all-pairs is
		// quadratic); see the scoreSupport comment in internal/core.
		scores := core.TransitionScores(g0, g1, o0, o1, variant, false)
		_ = core.NodeScores(n, scores)
	case MethodADJ:
		scores := core.TransitionScores(g0, g1, nil, nil, core.VariantADJ, false)
		_ = core.NodeScores(n, scores)
	case MethodACT:
		if _, err := act.Run(seq, act.Config{Window: 1}); err != nil {
			return 0, err
		}
	case MethodCLC:
		pivots := cfg.CLCSamplePivots
		if pivots >= n {
			pivots = 0 // exact when the graph is small anyway
		}
		_ = centrality.NodeScores(seq, centrality.Config{SamplePivots: pivots, Seed: seed})
	default:
		return 0, fmt.Errorf("unknown method %q", method)
	}
	return time.Since(start), nil
}

// Table renders the runtime grid.
func (r *ScaleResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("§4.1.3 scalability: seconds per transition (%s graphs, m ≈ %.0f·n, k=%d; paper ordering ADJ < ACT < CLC < COM ≈ CAD, near-linear growth)",
			r.Config.Family, r.Config.EdgesPerNode, r.Config.K),
		Header: append([]string{"n", "m"}, Methods()...),
	}
	for si, n := range r.Sizes {
		row := []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", r.Edges[si])}
		for _, m := range Methods() {
			row = append(row, fmt.Sprintf("%.3fs", r.Seconds[m][si]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
