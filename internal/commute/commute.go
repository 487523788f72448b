// Package commute computes commute-time distances between graph nodes,
// the structural metric at the heart of CAD (paper §3.1).
//
// Two oracles are provided, mirroring the paper:
//
//   - Exact: c(i,j) = V_G (l⁺_ii + l⁺_jj − 2 l⁺_ij) from the dense
//     Moore–Penrose pseudoinverse of the Laplacian (equation (3)).
//     O(n³) once, O(1) per pair; what the paper uses for the 17-node
//     toy example and the 151-node Enron graphs.
//
//   - Embedding: the Khoa–Chawla [15] approximate commute-time
//     embedding. Draw a k×m random ±1/√k projection Q, push it through
//     the weighted incidence operator, and solve k Laplacian systems;
//     then c(i,j) ≈ V_G ‖z_i − z_j‖² for the k-dimensional embedding
//     vectors z. With a fast SDD solver this is O(n log n) for sparse
//     graphs, which is what gives CAD its headline runtime.
//
// A note on disconnected graphs: the true commute time between
// vertices in different components is infinite, but equation (3)
// evaluated on the block pseudoinverse yields the large finite value
// V_G·(l⁺_ii + l⁺_jj) — and that is what the paper's reference
// implementation (and therefore its reported scores) computes. Both
// oracles follow that convention: cross-component pairs get large
// finite distances, which keeps CAD's ΔE = |ΔA|·|Δc| able to rank two
// component-bridging changes by their weight change rather than
// collapsing both to the same clamp value.
package commute

import (
	"fmt"
	"math"

	"dyngraph/internal/dense"
	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
	"dyngraph/internal/solver"
	"dyngraph/internal/sparse"
	"dyngraph/internal/xrand"
)

// Oracle answers commute-time distance queries on one fixed graph.
type Oracle interface {
	// Distance returns the commute-time distance c(i, j): 0 when
	// i == j, the paper's equation (3) within a component, and the
	// block-pseudoinverse value V_G·(l⁺_ii + l⁺_jj) across components
	// (see the package comment).
	Distance(i, j int) float64
	// N returns the number of vertices.
	N() int
}

// Exact computes commute times from the dense pseudoinverse of the
// graph Laplacian.
type Exact struct {
	n      int
	volume float64
	lplus  *dense.Matrix
}

// NewExact builds the exact oracle. It costs O(n³) time and O(n²)
// memory; intended for n up to a few thousand.
func NewExact(g *graph.Graph) *Exact {
	return &Exact{
		n:      g.N(),
		volume: g.Volume(),
		lplus:  dense.PseudoInverse(g.DenseLaplacian()),
	}
}

// N implements Oracle.
func (e *Exact) N() int { return e.n }

// Distance implements Oracle via equation (3) of the paper.
func (e *Exact) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	lii := e.lplus.At(i, i)
	ljj := e.lplus.At(j, j)
	lij := e.lplus.At(i, j)
	d := e.volume * (lii + ljj - 2*lij)
	if d < 0 { // numerical noise on near-identical vertices
		return 0
	}
	return d
}

// EffectiveResistance returns r(i,j) = c(i,j)/V_G, exposed for tests
// against closed-form resistances on paths, cycles and cliques.
func (e *Exact) EffectiveResistance(i, j int) float64 {
	if e.volume == 0 {
		return math.Inf(1)
	}
	return e.Distance(i, j) / e.volume
}

// Config configures the approximate embedding oracle.
type Config struct {
	// K is the embedding dimension (the paper's k, aka k_RP in [15]).
	// Zero means the paper's default of 50.
	K int
	// Seed drives the random projection; equal seeds give identical
	// embeddings regardless of Workers (each projection row has its own
	// derived stream).
	Seed int64
	// SharedProjections switches the projection's Rademacher draws from
	// a per-build sequential stream to a hash of (Seed, row, edge), so
	// the coefficient of every edge is independent of which other edges
	// exist. Across consecutive snapshots of a stream this gives common
	// random numbers: a row's right-hand side changes only where edges
	// changed, which is what lets NewEmbedding warm-start each solve
	// from the previous snapshot's solution, and it reduces the
	// variance of commute-time *differences* between snapshots (the
	// quantity CAD scores). The paper's experiments instead draw
	// independent projections per instance; leave this false to
	// reproduce them. Either way each single embedding is an unbiased
	// Johnson–Lindenstrauss sketch of the same quality.
	SharedProjections bool
	// Solver configures the Laplacian solves.
	Solver solver.Options
	// Workers is the number of goroutines sharing the blocked solve's
	// sparse matrix-block products (row-sharded SpMM). Zero or one
	// means serial. The embedding is identical for any Workers value:
	// each output row is owned by exactly one shard and computed with
	// the serial kernel's arithmetic. Parallelism only pays on large
	// graphs — the SpMM is sharded per PCG iteration — so choose
	// Workers ≈ CPU cores for n in the tens of thousands and leave it
	// at 1 for small ones.
	Workers int
	// IncrementalUpdates enables the low-rank (Woodbury) update path in
	// NewEmbedding: when consecutive snapshots differ by at
	// most IncrementalMaxEdits edges and the component structure is
	// unchanged, the embedding block is corrected directly — one base
	// solve per edited edge plus O(n·k) dense work — instead of
	// re-running blocked PCG, with the warm path as automatic fallback.
	// Requires SharedProjections (the correction's ΔY = B·S identity is
	// the common-random-numbers property). Off by default.
	IncrementalUpdates bool
	// IncrementalMaxEdits is the edit budget above which the
	// incremental path hands over to warm-started PCG (each edit costs
	// one base solve, so large diffs are cheaper as one blocked solve).
	// Zero means the default max(1, K/4), the measured crossover.
	IncrementalMaxEdits int
	// SparsifyTargetNNZ, when positive, caps each snapshot's stored
	// adjacency entries by effective-resistance (Spielman–Srivastava)
	// sampling before the solver sees it, using the resistances the
	// previous embedding already yields (see graph.SparsifyResistance).
	// The first build of a stream is never sparsified — it has no
	// resistance estimates yet. Zero (the default) disables the cap.
	SparsifyTargetNNZ int
}

func (c Config) k() int {
	if c.K <= 0 {
		return 50
	}
	return c.K
}

func (c Config) workers() int {
	if c.Workers <= 1 {
		return 1
	}
	return c.Workers
}

// retainRHS reports whether builds should keep the assembled
// right-hand-side block for the low-rank update path.
func (c Config) retainRHS() bool {
	return c.IncrementalUpdates && c.SharedProjections
}

// incrementalMaxEdits is the edit budget for the low-rank path: each
// edited edge costs one single-RHS base solve, so past roughly a
// quarter of the block width one warm blocked solve is cheaper.
func (c Config) incrementalMaxEdits() int {
	if c.IncrementalMaxEdits > 0 {
		return c.IncrementalMaxEdits
	}
	if m := c.k() / 4; m > 1 {
		return m
	}
	return 1
}

// embedKey fingerprints the configuration an embedding was built with,
// for deciding whether a later build may warm-start from it.
type embedKey struct {
	k      int
	seed   int64
	shared bool
	solver solver.Options
}

func (c Config) key() embedKey {
	return embedKey{k: c.k(), seed: c.Seed, shared: c.SharedProjections, solver: c.Solver}
}

// BuildStats reports the work one embedding build performed.
type BuildStats struct {
	// Rows is the number of Laplacian systems solved (the embedding
	// dimension k).
	Rows int
	// PCGIterations is the total preconditioned-CG iteration count
	// across all rows — the embedding's dominant cost, and the quantity
	// warm starts shrink.
	PCGIterations int
	// BlockIterations is the number of blocked-PCG iterations the build
	// performed — the maximum per-row count, since the block solver
	// carries all k rows per iteration and deactivates rows as they
	// converge. Each block iteration streams the Laplacian once, so
	// this (not PCGIterations) counts matrix traversals.
	BlockIterations int
	// Warm is true when the rows were warm-started from a previous
	// snapshot's embedding (NewEmbedding with a compatible prev).
	Warm bool
	// PrecondReused is true when the solver's preconditioner setup was
	// shared or patched from the previous snapshot instead of rebuilt.
	PrecondReused bool
	// Precond is the preconditioner kind the build's solver ran
	// ("tree", "jacobi" or "none"); on warm and incremental builds it
	// is the pin inherited from the previous build.
	Precond string
	// Probed is true when this build picked its preconditioner by
	// probing: a cold PrecondAuto build, or a warm one whose previous
	// solves drifted far over the pin's estimate.
	Probed bool
	// ProbeIterations is the number of PCG iterations the probe spent.
	// They are not part of PCGIterations, which counts solve work only.
	ProbeIterations int
	// Mode is the build path taken: "cold" (no reusable previous
	// embedding), "warm" (blocked PCG warm-started from the previous
	// solution block) or "incremental" (low-rank Woodbury correction,
	// verified on the new operator). The incremental mode also reports
	// Warm=true: its verification solve is a warm-started block solve.
	Mode string
	// BaseSolves is the number of incidence-column base solves the
	// incremental path performed — one per edited edge; zero for the
	// other modes.
	BaseSolves int
	// VerifySkipped is true when the incremental path's residual
	// certificate proved the corrected block already met tolerance, so
	// the verification solve (and its operator pass) was skipped. The
	// skip is bit-identical to running the verification: the bound
	// certifies the converged-guess early exit would have returned the
	// block unchanged.
	VerifySkipped bool
	// SparsifiedEdges is the number of edges the pre-solver
	// effective-resistance cap removed from this snapshot (0 when
	// sparsification is off or the snapshot was within the target).
	SparsifiedEdges int
}

// Embedding is the approximate commute-time oracle. Vertex i's
// embedding vector is stored contiguously, so Distance is a k-length
// squared-distance scan.
type Embedding struct {
	n      int
	k      int
	volume float64
	z      []float64 // n*k, z[i*k:(i+1)*k] is vertex i's vector

	// Retained for incremental rebuilds (NewEmbedding): the graph
	// this embedding belongs to, the solver whose preconditioner the
	// next snapshot may patch, and the config fingerprint that gates
	// reuse. g and lap are immutable once built.
	g     *graph.Graph
	lap   *solver.Laplacian
	key   embedKey
	stats BuildStats

	// y is the n×k right-hand-side block this embedding solved, kept
	// only when Config.IncrementalUpdates is on: the Woodbury path
	// patches it in O(edits·k) instead of re-hashing every edge, and
	// its verification solve needs the full block. Nil otherwise.
	y []float64

	// Per-column residual certificates, kept alongside y for the
	// incremental path. resBound[c] is a proven upper bound on the
	// absolute residual ‖P y_c − L z_c‖₂ of column c against THIS
	// embedding's operator; normB[c] is a lower bound on ‖P y_c‖₂. A
	// fresh build records the measured values; each Woodbury push grows
	// resBound by the exact residual propagation Σ_e ‖r_e‖·|W_{e,c}|
	// and shrinks normB by the RHS perturbation, and while
	// resBound[c] ≤ tol·normB[c] still holds for every column the
	// verification solve would provably return the corrected block
	// bit-for-bit unchanged — so it is skipped. Nil when unknown
	// (always verify).
	resBound []float64
	normB    []float64
}

// Stats reports the work this embedding's build performed.
func (e *Embedding) Stats() BuildStats { return e.stats }

// NewEmbedding builds the approximate oracle for g by k Laplacian
// solves, reusing the previous snapshot's embedding prev where that is
// sound. It chooses, in order of preference:
//
//   - "incremental": the low-rank Woodbury correction of prev's block
//     (see incremental.go), when Config.IncrementalUpdates is on and
//     the snapshots differ by a few edges within one component
//     structure;
//   - "warm": one blocked PCG solve warm-started from prev's solution
//     block, on a solver that reuses (or patches) prev's
//     preconditioner. SharedProjections makes each row's right-hand
//     side change only where edges changed, so a sparse stream's warm
//     solves need a small fraction of a cold build's iterations, and an
//     unchanged graph rebuilds for free, bit-identical to prev;
//   - "cold": a blocked solve from zero.
//
// prev is ignored (cold build) when it is nil or incompatible (see
// reusable). With Config.SparsifyTargetNNZ set, dense snapshots are
// first capped by effective-resistance sampling, using prev's
// resistances. Stats records the path taken.
//
// parent scopes the build's spans (nil disables them): "sparsify" when
// the cap ran, the solver's "precond", then "projection" (right-hand
// side assembly) and "pcg" on the warm/cold path, or "woodbury" and —
// unless its residual certificate skips it — a verifying "pcg" on the
// incremental one.
//
// A solver convergence failure on any projection is reported as an
// error (the partial embedding is not returned: a silently skewed
// metric is worse than a loud failure).
func NewEmbedding(g *graph.Graph, prev *Embedding, cfg Config, parent *obs.Span) (*Embedding, error) {
	prev = reusable(g, prev, cfg)
	var dropped int
	var diff []graph.Key
	// Sparsification, the diff and the Woodbury correction index state
	// sized to the previous snapshot (resistance estimates, the RHS
	// block), so they require an unchanged vertex set; a grown snapshot
	// takes the warm build, which extends the rows.
	if prev != nil && prev.n == g.N() {
		if cfg.SparsifyTargetNNZ > 0 {
			g, dropped = sparsify(g, prev, cfg, parent)
		}
		diff, _ = graph.DiffSupport(prev.g, g) // equal vertex counts: no error
	}
	emb := newEmbeddingShell(g, prev, diff, cfg, parent)
	emb.stats.SparsifiedEdges = dropped
	if cfg.IncrementalUpdates && prev != nil && prev.y != nil &&
		len(diff) > 0 && len(diff) <= cfg.incrementalMaxEdits() {
		done, err := emb.correct(prev, diff, cfg, parent)
		if err != nil {
			return nil, err
		}
		if done {
			return emb, nil
		}
	}
	if err := emb.solve(prev, cfg, parent); err != nil {
		return nil, err
	}
	return emb, nil
}

// reusable returns prev when a build of g under cfg may reuse it, nil
// otherwise: reuse needs SharedProjections (edge-keyed projection signs
// are what make prev's solutions valid guesses), the same K, Seed and
// solver configuration, and no fewer vertices. A grown vertex set
// keeps prev — the retained rows' solutions stay valid warm guesses and
// the new vertices' rows start at zero; only a shrunk one discards it.
func reusable(g *graph.Graph, prev *Embedding, cfg Config) *Embedding {
	if prev == nil || !cfg.SharedProjections || prev.g == nil ||
		prev.n > g.N() || prev.key != cfg.key() {
		return nil
	}
	return prev
}

// newEmbeddingShell allocates the embedding and builds its solver —
// once per build, whichever path then fills z. prev non-nil must
// already be validated (see reusable), and diff is
// DiffSupport(prev.g, g), nil when the vertex counts differ.
func newEmbeddingShell(g *graph.Graph, prev *Embedding, diff []graph.Key, cfg Config, parent *obs.Span) *Embedding {
	n := g.N()
	k := cfg.k()
	emb := &Embedding{
		n:      n,
		k:      k,
		volume: g.Volume(),
		z:      make([]float64, n*k),
		g:      g,
		key:    cfg.key(),
	}
	var prevG *graph.Graph
	var prevLap *solver.Laplacian
	mode := "cold"
	if prev != nil {
		prevG, prevLap, mode = prev.g, prev.lap, "warm"
	}
	emb.lap = solver.NewLaplacianFrom(g, prevG, prevLap, diff, cfg.Solver, parent)
	probe := emb.lap.Probe()
	emb.stats = BuildStats{
		Rows:            k,
		Warm:            prev != nil,
		PrecondReused:   emb.lap.ReusedPrecond(),
		Precond:         emb.lap.Precond().String(),
		Probed:          probe.Ran,
		ProbeIterations: probe.Iterations,
		Mode:            mode,
	}
	return emb
}

// embedRowSeed derives projection row `row`'s random stream, so the
// embedding is a pure function of (graph, K, Seed) — identical for any
// Workers value.
func embedRowSeed(seed int64, row int) int64 {
	const golden = 0x9E3779B97F4A7C15
	return seed ^ int64(uint64(row+1)*golden)
}

// projectionRHS writes y_row = (Q W^{1/2} B)ᵀ for projection row `row`
// — each edge contributes ±√(w)/√k to its endpoints with opposite
// signs — into column `col` of the row-major n×stride block y (pass
// stride=1, col=0 for a single dense vector).
func projectionRHS(y []float64, stride, col, row int, edges []graph.Edge, cfg Config, scale float64) {
	if cfg.SharedProjections {
		rs := embedRowSeed(cfg.Seed, row)
		for _, e := range edges {
			q := edgeSign(rs, e.I, e.J) * scale * math.Sqrt(e.W)
			y[e.I*stride+col] += q
			y[e.J*stride+col] -= q
		}
		return
	}
	rng := xrand.New(embedRowSeed(cfg.Seed, row))
	for _, e := range edges {
		q := rng.Rademacher() * scale * math.Sqrt(e.W)
		y[e.I*stride+col] += q
		y[e.J*stride+col] -= q
	}
}

// solve fills z by the k Laplacian solves as one blocked multi-RHS
// PCG call — warm-started from prev's block when prev is non-nil, cold
// otherwise. The embedding's row-major z storage (vertex i's vector at
// z[i*k:(i+1)*k]) is exactly the solver's block layout, so the
// right-hand sides are assembled in place, the previous snapshot's z
// doubles as the warm-start block with a single copy, and no per-row
// gather/scatter remains. Workers shards the per-iteration SpMM row
// ranges; the result is bit-identical for every value, and matches k
// independent single-column solves bit-for-bit.
func (emb *Embedding) solve(prev *Embedding, cfg Config, parent *obs.Span) error {
	n, k := emb.n, emb.k
	edges := emb.g.Edges()
	scale := 1 / math.Sqrt(float64(k))

	proj := parent.StartChild("projection")
	y := make([]float64, n*k)
	for row := 0; row < k; row++ {
		projectionRHS(y, k, row, row, edges, cfg, scale)
	}
	proj.SetInt("k", int64(k))
	proj.SetInt("edges", int64(len(edges)))
	proj.SetBool("shared", cfg.SharedProjections)
	proj.End()

	if prev != nil {
		// Warm start every column from the previous snapshot's
		// solution — prev.z already is the n×k guess block. If the
		// component structure changed (a bridge cut or re-joined), the
		// guess is centered for the old labelling, and — because such
		// edits can leave it an exact solution up to per-component
		// constants — the converged-guess early exit would hand those
		// stale means straight back; re-center it first. On unchanged
		// structure the block is untouched, preserving the bit-identical
		// warm-rebuild contract. On a grown vertex set the row-major
		// copy fills exactly the retained vertices' rows (new rows stay
		// zero) and sameComponents reports false on the length mismatch,
		// so the extended guess block is always re-centered.
		copy(emb.z, prev.z)
		if !sameComponents(emb.lap, prev.lap) {
			emb.lap.ProjectBlock(emb.z, k)
		}
	}
	stats, err := emb.lap.SolveBlockWith(emb.z, y, k, cfg.workers(), prev != nil, 0, parent)
	emb.addIterations(stats)
	if err != nil {
		return fmt.Errorf("commute: embedding block solve: %w", err)
	}
	if cfg.retainRHS() {
		emb.y = y
		emb.certify(stats)
	}
	return nil
}

// addIterations adds a block solve's work to the build stats.
func (emb *Embedding) addIterations(stats []solver.Stats) {
	for _, st := range stats {
		emb.stats.PCGIterations += st.Iterations
		if st.Iterations > emb.stats.BlockIterations {
			emb.stats.BlockIterations = st.Iterations
		}
	}
}

// certify resets the per-column residual certificates to a block
// solve's measured values.
func (emb *Embedding) certify(stats []solver.Stats) {
	emb.resBound = make([]float64, emb.k)
	emb.normB = make([]float64, emb.k)
	for c, st := range stats {
		emb.resBound[c] = st.Residual * st.NormB
		emb.normB[c] = st.NormB
	}
}

// sameComponents reports whether two solvers carry the identical
// component labelling (both come from the same deterministic DFS, so
// equal structure means equal labels).
func sameComponents(a, b *solver.Laplacian) bool {
	ca, na := a.Components()
	cb, nb := b.Components()
	if na != nb || len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// edgeSign derives a deterministic Rademacher ±1 for one (row, edge)
// pair by hashing rather than by drawing from a sequential stream, so
// an edge's projection coefficient does not depend on which other
// edges exist (splitmix64 finalizer; rowSeed is already well mixed).
// This positional independence is the "common random numbers" property
// SharedProjections promises.
func edgeSign(rowSeed int64, i, j int) float64 {
	x := uint64(rowSeed) ^ (uint64(uint32(i))<<32 | uint64(uint32(j)))
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x>>63 == 0 {
		return 1
	}
	return -1
}

// N implements Oracle.
func (e *Embedding) N() int { return e.n }

// K returns the embedding dimension.
func (e *Embedding) K() int { return e.k }

// Vector returns vertex i's embedding vector. The slice aliases
// internal storage and must not be modified.
func (e *Embedding) Vector(i int) []float64 {
	return e.z[i*e.k : (i+1)*e.k]
}

// Distance implements Oracle: c(i,j) ≈ V_G ‖z_i − z_j‖². Because the
// solver returns minimum-norm (per-component mean-centered) solutions,
// cross-component distances approximate the exact oracle's block
// pseudoinverse values.
func (e *Embedding) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	return e.volume * sparse.SquaredDistance(e.Vector(i), e.Vector(j))
}

// EffectiveResistance estimates r(i,j) = c(i,j)/V_G ≈ ‖z_i − z_j‖² —
// the leverage-score input the spectral sparsifier samples by, already
// paid for by the embedding's solves.
func (e *Embedding) EffectiveResistance(i, j int) float64 {
	if i == j {
		return 0
	}
	return sparse.SquaredDistance(e.Vector(i), e.Vector(j))
}

// New returns the oracle the paper's experimental setup would pick:
// exact when n is small enough that O(n³) is trivial (the Enron case),
// otherwise the k-dimensional embedding, built by NewEmbedding from
// prev when prev is a compatible embedding (nil, or an exact oracle,
// builds cold). exactCutoff ≤ 0 selects a default of 400 vertices.
// parent scopes the build's spans (nil disables them); the exact
// regime emits a single "pinv" span since the dense pseudoinverse has
// no stages worth splitting.
func New(g *graph.Graph, prev Oracle, cfg Config, exactCutoff int, parent *obs.Span) (Oracle, error) {
	if exactCutoff <= 0 {
		exactCutoff = 400
	}
	if g.N() <= exactCutoff {
		sp := parent.StartChild("pinv")
		e := NewExact(g)
		sp.SetInt("n", int64(g.N()))
		sp.End()
		return e, nil
	}
	prevEmb, _ := prev.(*Embedding)
	return NewEmbedding(g, prevEmb, cfg, parent)
}

// NewIncrementalFromTraced is New under its former name.
//
// Deprecated: use New. The name stays only because the end-to-end push
// benchmark module (pushbench/) calls it, and that module changes only
// together with the benchmark's definition.
func NewIncrementalFromTraced(g *graph.Graph, prev Oracle, cfg Config, exactCutoff int, parent *obs.Span) (Oracle, error) {
	return New(g, prev, cfg, exactCutoff, parent)
}
