package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"dyngraph/internal/graph"
	"dyngraph/internal/service"
)

const (
	// plantAt is the arrival index (instance) of the snapshot that adds
	// the planted clique; the transition into it must flag the clique.
	plantAt = 5
	// cliqueSize vertices spread across the graph's structure are joined
	// by heavy edges at plantAt and stay joined afterwards.
	cliqueSize   = 6
	cliqueEdges  = cliqueSize * (cliqueSize - 1) / 2
	trickleComms = 4
	trickleEdges = 29900
)

// Build modes a workload claims for its warm pushes (see checkMode).
const (
	modeIncremental      = "incremental" // Woodbury on ≥ 90% of pushes
	modeNeverIncremental = "never-incremental"
)

// workload describes one input family: how its base graph is built,
// how each push edits it, and the load shape pushed at cadd.
type workload struct {
	name string
	// n is the vertex count and m the base edge count; the planted
	// clique adds cliqueEdges from instance plantAt on. edits is the
	// exact number of pairs whose weight changes on every push except
	// the planted one, where the clique's edges come on top.
	n, m  int
	edits int
	// One closed-loop sync pusher drives the stream. readHz > 0 adds
	// an open-loop GET /report reader through the window; otherwise
	// /report is read only after the window (see idleReads).
	readHz float64
	mode   string
	// layerPushes is how many leading instances the traced run replays
	// through the per-layer calls.
	layerPushes int
	base        func(rng *rand.Rand, n int) baseGraph
	step        func(s *sequence)
}

// baseGraph is a workload's instance-0 edge list plus the vertices the
// planted clique will join and the weight of the clique's edges.
type baseGraph struct {
	edges        []service.SnapshotEdge
	clique       []int
	cliqueWeight float64
}

// workloads are the benchmark's input families; BENCHMARK.json records
// why each was chosen.
//
//   - trickle: 1 edit per push on a Jacobi-preconditioned graph, so
//     Woodbury updates run and the wire and JSON decode dominate.
//   - churn: every edge edited per push on a sparse expander-like graph
//     where PrecondAuto picks the spanning tree, so warm PCG dominates.
//     n is 3000, not 5000, so a run holds enough pushes for a p90.
//   - neartree_read: 16 edits per push (over the Woodbury budget of
//     k/4) on a graph the tree preconditioner suits, with reads
//     contending for the detector lock.
var workloads = []*workload{
	{
		name:        "trickle",
		n:           5000,
		m:           trickleEdges,
		edits:       1,
		mode:        modeIncremental,
		layerPushes: 40,
		base:        trickleBase,
		step:        func(s *sequence) { s.reweightRandom(1) },
	},
	{
		name:        "churn",
		n:           3000,
		m:           2*3000 - 1 - cliqueEdges,
		edits:       2*3000 - 1 - cliqueEdges,
		mode:        modeNeverIncremental,
		layerPushes: 8,
		base:        churnBase,
		step:        (*sequence).reweightAll,
	},
	{
		name:        "neartree_read",
		n:           5000,
		m:           5000 - 1 + 5000/50,
		edits:       16,
		readHz:      20,
		mode:        modeNeverIncremental,
		layerPushes: 24,
		base:        neartreeBase,
		step:        func(s *sequence) { s.reweightRandom(16) },
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// edgeSet collects distinct undirected pairs.
type edgeSet struct {
	seen   map[graph.Key]bool
	edges  []service.SnapshotEdge
	clique map[int]bool
}

// newEdgeSet returns an empty set that refuses pairs inside clique, so
// the planted clique's edges are always new pairs.
func newEdgeSet(capacity int, clique []int) *edgeSet {
	s := &edgeSet{
		seen:   make(map[graph.Key]bool, capacity),
		edges:  make([]service.SnapshotEdge, 0, capacity),
		clique: make(map[int]bool, len(clique)),
	}
	for _, v := range clique {
		s.clique[v] = true
	}
	return s
}

// add inserts (i, j) with weight w unless it is a self-loop, a pair
// inside the clique or already present, reporting whether it was
// inserted.
func (s *edgeSet) add(i, j int, w float64) bool {
	if i == j || (s.clique[i] && s.clique[j]) {
		return false
	}
	k := graph.MakeKey(i, j)
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	s.edges = append(s.edges, service.SnapshotEdge{I: i, J: j, W: w})
	return true
}

// spread picks cliqueSize entries of order evenly spaced along it.
func spread(order []int) []int {
	out := make([]int, cliqueSize)
	for c := range out {
		out[c] = order[c*len(order)/cliqueSize+len(order)/(2*cliqueSize)]
	}
	return out
}

// trickleBase: four equal communities, each a ring (so it is connected)
// plus random intra-community edges, joined by weak random
// cross-community edges. Average degree ≈ 12, so PrecondAuto picks
// Jacobi. The clique takes vertices from every community.
func trickleBase(rng *rand.Rand, n int) baseGraph {
	const inter = 300
	size := n / trickleComms
	intra := (trickleEdges - inter) / trickleComms
	perm := rng.Perm(n)
	comm := make([]int, n)
	for i, v := range perm {
		comm[v] = i / size
	}
	// perm lists community 0's members first, then 1's, …; spreading
	// over it covers every community.
	clique := spread(perm)
	es := newEdgeSet(trickleEdges, clique)
	for c := 0; c < trickleComms; c++ {
		members := perm[c*size : (c+1)*size]
		for i := range members {
			es.add(members[i], members[(i+1)%size], 1+rng.Float64())
		}
		for added := size; added < intra; {
			if es.add(members[rng.Intn(size)], members[rng.Intn(size)], 1+rng.Float64()) {
				added++
			}
		}
	}
	for added := 0; added < inter; {
		a, b := perm[rng.Intn(n)], perm[rng.Intn(n)]
		if comm[a] != comm[b] && es.add(a, b, 0.1+0.1*rng.Float64()) {
			added++
		}
	}
	return baseGraph{edges: es.edges, clique: clique, cliqueWeight: 20}
}

// pathPlusChords lays a spanning path over a random vertex order with
// weights from pathW, then adds chords distinct random chords weighted
// by chordW. The clique joins vertices spread along the path.
func pathPlusChords(rng *rand.Rand, n, chords int, pathW, chordW func() float64, cliqueW float64) baseGraph {
	order := rng.Perm(n)
	clique := spread(order)
	es := newEdgeSet(n+chords, clique)
	for i := 0; i+1 < n; i++ {
		es.add(order[i], order[i+1], pathW())
	}
	for added := 0; added < chords; {
		if es.add(rng.Intn(n), rng.Intn(n), chordW()) {
			added++
		}
	}
	return baseGraph{edges: es.edges, clique: clique, cliqueWeight: cliqueW}
}

// churnBase has n chords less the clique's edges, so the average
// degree stays below PrecondAuto's cutoff of 4 after the clique lands.
func churnBase(rng *rand.Rand, n int) baseGraph {
	w := func() float64 { return 1 + rng.Float64() }
	return pathPlusChords(rng, n, n-cliqueEdges, w, w, 20)
}

func neartreeBase(rng *rand.Rand, n int) baseGraph {
	pathW := func() float64 { return math.Pow(10, -2+4*rng.Float64()) }
	chordW := func() float64 { return 1e-3 * (1 + rng.Float64()) }
	return pathPlusChords(rng, n, n/50, pathW, chordW, 1000)
}

// sequence generates the stream's snapshots deterministically from the
// workload seed. Snapshot t is produced by the t-th call to next; the
// returned Snapshot shares the sequence's edge slice, so it is valid
// only until the following call (encode or copy it first).
type sequence struct {
	w       *workload
	rng     *rand.Rand
	edges   []service.SnapshotEdge
	base    []float64 // instance-0 weights of the base edges
	clique  []int
	cliqueW float64
	t       int // instance the next call to next returns
}

// generatorSeed derives the workload's generator seed from the run
// seed.
func generatorSeed(seed int64, w *workload) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", w.name, seed)
	return int64(h.Sum64() >> 1)
}

func newSequence(w *workload, seed int64) *sequence {
	rng := rand.New(rand.NewSource(generatorSeed(seed, w)))
	b := w.base(rng, w.n)
	base := make([]float64, len(b.edges))
	for i, e := range b.edges {
		base[i] = e.W
	}
	return &sequence{w: w, rng: rng, edges: b.edges, base: base, clique: b.clique, cliqueW: b.cliqueWeight}
}

func (s *sequence) next() service.Snapshot {
	if s.t > 0 {
		s.w.step(s)
		if s.t == plantAt {
			for a := 0; a < len(s.clique); a++ {
				for b := a + 1; b < len(s.clique); b++ {
					s.edges = append(s.edges, service.SnapshotEdge{I: s.clique[a], J: s.clique[b], W: s.cliqueW})
				}
			}
		}
	}
	s.t++
	return service.Snapshot{N: s.w.n, Edges: s.edges}
}

// reweight sets base edge i to its instance-0 weight scaled by a fresh
// factor in [0.9, 1.1], never leaving the weight unchanged.
func (s *sequence) reweight(i int) {
	old := s.edges[i].W
	for s.edges[i].W == old {
		s.edges[i].W = s.base[i] * (0.9 + 0.2*s.rng.Float64())
	}
}

// reweightAll edits every base edge.
func (s *sequence) reweightAll() {
	for i := range s.base {
		s.reweight(i)
	}
}

// reweightRandom edits k distinct base edges chosen uniformly.
func (s *sequence) reweightRandom(k int) {
	picked := make(map[int]bool, k)
	for len(picked) < k {
		i := s.rng.Intn(len(s.base))
		if !picked[i] {
			picked[i] = true
			s.reweight(i)
		}
	}
}

// checkShape asserts that g is instance t of w as described: n
// vertices, the stated edge count, and — against the previous instance
// — exactly the stated number of edited pairs (the planted push adds
// the clique's edges on top).
func checkShape(w *workload, t int, prev, g *graph.Graph) error {
	wantM := w.m
	if t >= plantAt {
		wantM += cliqueEdges
	}
	if g.N() != w.n || g.NumEdges() != wantM {
		return fmt.Errorf("%s instance %d: n=%d m=%d, want n=%d m=%d", w.name, t, g.N(), g.NumEdges(), w.n, wantM)
	}
	if prev == nil {
		return nil
	}
	diff, err := graph.DiffSupport(prev, g)
	if err != nil {
		return fmt.Errorf("%s instance %d: %w", w.name, t, err)
	}
	want := w.edits
	if t == plantAt {
		want += cliqueEdges
	}
	if len(diff) != want {
		return fmt.Errorf("%s instance %d: %d edited pairs, want %d", w.name, t, len(diff), want)
	}
	return nil
}
