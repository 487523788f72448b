package experiments

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"dyngraph/internal/cluster"
	"dyngraph/internal/graph"
	"dyngraph/internal/service"
)

// ClusterConfig shapes the horizontal scale-out benchmark
// (BENCH_cluster.json): the same stream population replayed through
// the cluster router against one node and against three, under a
// per-node memory budget sized so the single node must govern (churn
// streams in and out of hibernation) while each cluster node keeps its
// shard resident.
type ClusterConfig struct {
	// Streams is the stream population. Zero selects 12.
	Streams int `json:"streams"`
	// Rounds is the number of round-robin replay rounds per phase (each
	// round pushes one snapshot into every stream). Zero selects 4.
	Rounds int `json:"rounds"`
	// N is the per-stream graph size. Zero selects 5000 — big enough
	// that a cold embedding-oracle rebuild dwarfs a warm incremental
	// update, which is exactly the cost hibernation churn pays.
	N int `json:"n"`
	// Nodes is the cluster size of the scaled phase. Zero selects 3.
	Nodes int `json:"nodes"`
	// Seed drives the synthetic snapshot streams.
	Seed int64 `json:"seed"`
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Streams <= 0 {
		c.Streams = 12
	}
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	if c.N <= 0 {
		c.N = 5000
	}
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Seed == 0 {
		c.Seed = 71
	}
	return c
}

// ClusterPhase is one replay phase's measurement.
type ClusterPhase struct {
	// Nodes is the phase's cluster size.
	Nodes int `json:"nodes"`
	// Pushes is the total snapshots routed in the phase.
	Pushes int `json:"pushes"`
	// WallSeconds is the phase's wall-clock replay time.
	WallSeconds float64 `json:"wall_seconds"`
	// PushesPerSec is the aggregate routed push throughput.
	PushesPerSec float64 `json:"pushes_per_sec"`
	// Push is the per-push latency distribution (through the router).
	Push LatencyStats `json:"push"`
	// Rehydrations counts lazy rehydrations across the phase's nodes —
	// the churn the memory budget forced.
	Rehydrations int64 `json:"rehydrations"`
}

// ClusterResult is the machine-readable benchmark record
// (BENCH_cluster.json).
type ClusterResult struct {
	Config ClusterConfig `json:"config"`
	// PerStreamBytes is one resident stream's measured footprint at
	// this shape — the input to the budget arithmetic.
	PerStreamBytes int64 `json:"per_stream_bytes"`
	// NodeBudgetBytes is the per-node memory budget both phases run
	// under: sized so one shard (streams/nodes) sits at half of it.
	NodeBudgetBytes int64 `json:"node_budget_bytes"`
	// SingleNode replays every stream against one budgeted node.
	SingleNode ClusterPhase `json:"single_node"`
	// Cluster replays the same load against Nodes budgeted nodes.
	Cluster ClusterPhase `json:"cluster"`
	// Speedup is Cluster.PushesPerSec / SingleNode.PushesPerSec.
	Speedup float64 `json:"speedup"`
	// Note records what the experiment is and is not measuring.
	Note string `json:"note"`
}

// clusterNote documents the benchmark's model so the committed JSON is
// self-explaining.
const clusterNote = "Both phases route through the cluster router on loopback. " +
	"Every node runs the same per-node memory budget, sized so one shard " +
	"(streams/nodes) occupies ~50% of it: the cluster keeps every shard " +
	"resident and pushes warm-start from the previous embedding, while the " +
	"single node holds the whole population at ~(nodes x 50%) of budget and " +
	"must churn streams through hibernation, paying a cold oracle rebuild on " +
	"rehydration. Each round redraws a stream's whole graph from a fresh " +
	"seed (path weights jittered, every chord rewired), so every push " +
	"changes every edge: warm pushes run warm-started PCG, never the " +
	"low-rank incremental update. The speedup is therefore memory-capacity " +
	"scaling (the daemon's governing resource), not CPU parallelism — the " +
	"harness runs the nodes in one process."

// clusterStreamConfig is the per-stream detector shape: shared
// projections with incremental updates (the warm fast path), embedding
// oracle forced at every size, modest solver tolerance.
func clusterStreamConfig() service.StreamConfig {
	return service.StreamConfig{
		L:                  3,
		K:                  12,
		ExactCutoff:        1,
		SharedProjections:  true,
		IncrementalUpdates: true,
		SolverTol:          1e-5,
		TraceBuffer:        -1,
	}
}

// clusterSnapshot builds stream s's round-r snapshot: a connected
// sparse graph (a jittered-weight path plus N random chords) drawn
// afresh from a per-(stream, round) seed. Consecutive rounds share no
// edge weights and few chords, so every push changes every edge and
// warm streams run warm-started PCG rather than the low-rank
// incremental update.
func clusterSnapshot(cfg ClusterConfig, s, r int) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(s)*1009 + int64(r)*31))
	b := graph.NewBuilder(cfg.N)
	for i := 1; i < cfg.N; i++ {
		b.AddEdge(i-1, i, 1+0.1*rng.Float64())
	}
	for k := 0; k < cfg.N; k++ {
		i, j := rng.Intn(cfg.N), rng.Intn(cfg.N)
		if i != j {
			b.SetEdge(i, j, 0.5+rng.Float64())
		}
	}
	return b.MustBuild()
}

// clusterHarness is one phase's serving stack: n in-process cadd nodes
// behind real loopback listeners, a shared membership, and the router
// in front.
type clusterHarness struct {
	servers []*service.Server
	nodes   []*httptest.Server
	router  *httptest.Server
}

func newClusterHarness(nodes int, budget int64, dataDir string) (*clusterHarness, error) {
	h := &clusterHarness{}
	handlers := make([]http.Handler, nodes)
	peers := make([]cluster.Peer, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].ServeHTTP(w, r)
		}))
		h.nodes = append(h.nodes, hs)
		peers[i] = cluster.Peer{ID: fmt.Sprintf("cadd-%d", i), URL: hs.URL}
	}
	mem, err := cluster.NewMembership(cluster.MembershipConfig{Peers: peers, HealthInterval: time.Hour})
	if err != nil {
		h.close()
		return nil, err
	}
	for i := 0; i < nodes; i++ {
		dir := fmt.Sprintf("%s/node-%d", dataDir, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			h.close()
			return nil, err
		}
		srv := service.New(service.Config{
			DataDir:        dir,
			Fsync:          false, // measure governance, not the disk
			SnapshotEvery:  2,     // bound rehydration replay: churn pays the oracle rebuild, not WAL length
			MemBudgetBytes: budget,
			NodeID:         peers[i].ID,
		})
		np, err := cluster.NewNodeProxy(peers[i].ID, mem, nil, nil)
		if err != nil {
			h.close()
			return nil, err
		}
		h.servers = append(h.servers, srv)
		handlers[i] = np.Wrap(srv.Handler())
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Membership: mem})
	if err != nil {
		h.close()
		return nil, err
	}
	h.router = httptest.NewServer(rt.Handler())
	return h, nil
}

func (h *clusterHarness) close() {
	if h.router != nil {
		h.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, srv := range h.servers {
		srv.Shutdown(ctx)
	}
	for _, hs := range h.nodes {
		hs.Close()
	}
}

// rehydrations sums cadd_rehydrations_total across the phase's nodes.
func (h *clusterHarness) rehydrations() int64 {
	var total int64
	for _, hs := range h.nodes {
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "cadd_rehydrations_total "); ok {
				if v, err := strconv.ParseFloat(rest, 64); err == nil {
					total += int64(v)
				}
			}
		}
		resp.Body.Close()
	}
	return total
}

// runClusterPhase replays the round-robin schedule through the
// harness's router and measures it.
func runClusterPhase(cfg ClusterConfig, h *clusterHarness) (ClusterPhase, error) {
	ctx := context.Background()
	cl := service.NewClient(h.router.URL, nil)
	scfg := clusterStreamConfig()
	for s := 0; s < cfg.Streams; s++ {
		id := fmt.Sprintf("bench-%03d", s)
		if err := cl.CreateStream(ctx, id, scfg); err != nil {
			return ClusterPhase{}, err
		}
		// Prime each stream with one snapshot outside the timed window
		// so both phases start from live detectors, not stream creation.
		if _, err := cl.Push(ctx, id, clusterSnapshot(cfg, s, 0), true); err != nil {
			return ClusterPhase{}, err
		}
	}
	base := h.rehydrations()
	lats := make([]time.Duration, 0, cfg.Streams*cfg.Rounds)
	start := time.Now()
	for r := 1; r <= cfg.Rounds; r++ {
		for s := 0; s < cfg.Streams; s++ {
			id := fmt.Sprintf("bench-%03d", s)
			t0 := time.Now()
			if _, err := cl.Push(ctx, id, clusterSnapshot(cfg, s, r), true); err != nil {
				return ClusterPhase{}, fmt.Errorf("round %d stream %s: %w", r, id, err)
			}
			lats = append(lats, time.Since(t0))
		}
	}
	wall := time.Since(start)
	phase := ClusterPhase{
		Nodes:        len(h.servers),
		Pushes:       len(lats),
		WallSeconds:  wall.Seconds(),
		Push:         latencyStats(lats),
		Rehydrations: h.rehydrations() - base,
	}
	if wall > 0 {
		phase.PushesPerSec = float64(len(lats)) / wall.Seconds()
	}
	return phase, nil
}

// Cluster runs the scale-out benchmark: measure one stream's resident
// footprint, derive the per-node budget, then replay the same routed
// load against one budgeted node and against cfg.Nodes of them.
func Cluster(cfg ClusterConfig) (*ClusterResult, error) {
	cfg = cfg.withDefaults()

	// Footprint pre-phase: a handful of streams on an unbudgeted node,
	// pushed as many times as the real phases will push, so the
	// history growth that comes with each round is priced in.
	probe := service.New(service.Config{MaxStreams: cfg.Streams})
	const probeStreams = 2
	for s := 0; s < probeStreams; s++ {
		id := fmt.Sprintf("probe-%d", s)
		if err := probe.CreateStream(id, clusterStreamConfig()); err != nil {
			return nil, err
		}
		for r := 0; r <= cfg.Rounds; r++ {
			if _, err := probe.Push(id, clusterSnapshot(cfg, s, r), true); err != nil {
				return nil, err
			}
		}
	}
	perStream := probe.AccountedBytes() / probeStreams
	{
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		probe.Shutdown(ctx)
		cancel()
	}
	if perStream <= 0 {
		return nil, fmt.Errorf("experiments: per-stream footprint measured as %d bytes", perStream)
	}

	// One shard at half the node budget: the cluster's nodes stay
	// comfortably under the governor's watermarks, the single node is
	// at nodes x 50% ≈ 150% of budget and must churn.
	shard := (cfg.Streams + cfg.Nodes - 1) / cfg.Nodes
	budget := perStream * int64(shard) * 2

	res := &ClusterResult{
		Config:          cfg,
		PerStreamBytes:  perStream,
		NodeBudgetBytes: budget,
		Note:            clusterNote,
	}
	for _, nodes := range []int{1, cfg.Nodes} {
		dir, err := os.MkdirTemp("", "cad-cluster-bench-")
		if err != nil {
			return nil, err
		}
		h, err := newClusterHarness(nodes, budget, dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		phase, err := runClusterPhase(cfg, h)
		h.close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		if nodes == 1 {
			res.SingleNode = phase
		} else {
			res.Cluster = phase
		}
	}
	if res.SingleNode.PushesPerSec > 0 {
		res.Speedup = res.Cluster.PushesPerSec / res.SingleNode.PushesPerSec
	}
	return res, nil
}

// WriteJSON writes the benchmark record.
func (r *ClusterResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText prints the human-readable summary.
func (r *ClusterResult) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "cluster scale-out: %d streams, n=%d, %d rounds\n",
		r.Config.Streams, r.Config.N, r.Config.Rounds)
	fmt.Fprintf(w, "  per-stream footprint %.1f MiB, node budget %.1f MiB\n",
		float64(r.PerStreamBytes)/(1<<20), float64(r.NodeBudgetBytes)/(1<<20))
	row := func(name string, p ClusterPhase) {
		fmt.Fprintf(w, "  %-12s %d node(s): %6.2f push/s  p50 %6.1fms  p99 %6.1fms  rehydrations %d\n",
			name, p.Nodes, p.PushesPerSec, p.Push.P50Ms, p.Push.P99Ms, p.Rehydrations)
	}
	row("single-node", r.SingleNode)
	row("cluster", r.Cluster)
	fmt.Fprintf(w, "  aggregate speedup %.2fx\n", r.Speedup)
	return nil
}
