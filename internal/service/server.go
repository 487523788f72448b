package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dyngraph/internal/budget"
	"dyngraph/internal/hibernate"
)

// Config configures a Server.
type Config struct {
	// DefaultQueueSize is the ingest-queue bound for streams that do
	// not set their own (default 64).
	DefaultQueueSize int
	// MaxStreams caps concurrently registered streams — resident or
	// hibernated (default 1024); stream creation beyond it fails.
	MaxStreams int
	// DefaultTraceBuffer is the per-stream push-trace retention for
	// streams that do not set their own (default 64; negative disables
	// tracing by default).
	DefaultTraceBuffer int
	// Logger receives the server's structured logs (stream lifecycle,
	// push errors, slow pushes). Nil discards them.
	Logger *slog.Logger
	// DataDir enables crash-safe durability: each stream journals its
	// accepted pushes to <DataDir>/streams/<id>/ (config + WAL +
	// compact snapshots), and Recover replays the directory at boot.
	// Empty disables durability — and with it, hibernation.
	DataDir string
	// Fsync syncs the WAL after every journaled push. Off, a process
	// crash still loses nothing (the page cache survives); a machine
	// crash can lose the newest pushes, which recovery truncates
	// cleanly. Snapshots are always fsynced regardless.
	Fsync bool
	// SnapshotEvery is the number of journaled pushes between compact
	// snapshots (default 64). Smaller values bound replay time and WAL
	// size at the cost of more frequent full-state writes.
	SnapshotEvery int

	// MemBudgetBytes caps the estimated resident bytes of all live
	// detector state. When the total crosses the high watermark (90%),
	// the governor hibernates the coldest streams until it is back
	// under the low watermark (75%). 0 disables the budget; resident
	// sizes are still accounted for /streams and /metrics. Requires
	// DataDir.
	MemBudgetBytes int64
	// HibernateAfter hibernates streams idle (no push, report or
	// transition read) for this long, regardless of budget pressure.
	// 0 disables idle hibernation. Requires DataDir.
	HibernateAfter time.Duration
	// MinResident is the floor of resident streams the governor will
	// never evict below (default 1).
	MinResident int
	// GovernorInterval is the governance-pass period (default 15s);
	// crossing the high watermark additionally kicks a pass
	// immediately.
	GovernorInterval time.Duration

	// Replication, when set, receives every stream's journal artifacts
	// as they are produced — config at creation, each WAL frame as it
	// is appended, each compact snapshot, deletions — so a follower can
	// maintain a byte-identical copy of the data directory (see
	// internal/cluster). Requires DataDir. Sink methods are called from
	// stream worker goroutines and must not block.
	Replication ReplicationSink
	// ExtraMetrics are appended to the /metrics exposition after the
	// server's own series — the hook cluster components (forward proxy,
	// replicator) use to publish their counters through the node's
	// scrape endpoint.
	ExtraMetrics []func(io.Writer)
	// NodeID, when non-empty, names this server in a cluster: responses
	// carry it in the X-Cadd-Node header and /healthz reports it, so
	// clients and tests can see which node actually served a request.
	NodeID string

	// SLOPushP99 is the default per-stream push-latency SLO objective in
	// seconds (the cadd -slo-push-p99 flag): at most 1% of a stream's
	// pushes may take longer. Streams can override or opt out via
	// StreamConfig.SLOPushSeconds. 0 disables the default objective.
	SLOPushP99 float64
	// StatusSections are extra named sections appended to the /statusz
	// document — the hook cadd uses to surface the runtime sampler,
	// cluster peer health and replication progress through the node's
	// status endpoint. Value functions must be safe for concurrent use.
	StatusSections []StatusSection
}

// StatusSection is one pluggable /statusz section: Name keys the JSON
// field, Value is evaluated per request.
type StatusSection struct {
	Name  string
	Value func() any
}

func (c Config) withDefaults() Config {
	if c.DefaultQueueSize <= 0 {
		c.DefaultQueueSize = 64
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 1024
	}
	if c.DefaultTraceBuffer == 0 {
		c.DefaultTraceBuffer = 64
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 64
	}
	if c.MinResident <= 0 {
		c.MinResident = 1
	}
	if c.GovernorInterval <= 0 {
		c.GovernorInterval = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// unlimitedLedgerCap sizes the accounting ledger when no budget is
// configured: resident bytes are still tracked (for /streams and the
// gauges) but the watermarks are unreachable.
const unlimitedLedgerCap = int64(1) << 62

// Server owns the stream registry and the metrics it exposes. Wrap
// Handler() in an http.Server to serve it; call Shutdown to drain.
type Server struct {
	cfg     Config
	metrics *metrics

	// Memory governance: the byte ledger, the working-set tracker over
	// resident streams, and the singleflight for shared rehydrations.
	ledger *budget.Accountant
	lru    *hibernate.LRU
	flight hibernate.Flight

	started time.Time // for /statusz uptime

	mu       sync.RWMutex
	streams  map[string]*entry
	shutdown bool

	govStop chan struct{}
	govKick chan struct{}
	govWG   sync.WaitGroup
}

// New returns an empty server. When memory governance is configured
// (DataDir plus MemBudgetBytes or HibernateAfter), the background
// governor starts immediately; Shutdown stops it.
func New(cfg Config) *Server {
	m := newMetrics()
	m.describe("cadd_snapshots_ingested_total", "Snapshots accepted into a stream's queue.")
	m.describe("cadd_snapshots_processed_total", "Snapshots scored by a stream's worker.")
	m.describe("cadd_snapshots_rejected_total", "Snapshots rejected with 429 because the bounded queue was full.")
	m.describe("cadd_push_errors_total", "Detector Push failures (e.g. vertex-count mismatch).")
	m.describe("cadd_oracle_builds_total", "Commute-oracle builds by mode: incremental (low-rank Woodbury correction), warm (warm-started rebuild), cold, or exact (small-n pseudoinverse).")
	m.describe("cadd_pcg_iterations_total", "PCG iterations spent building embedding oracles, summed per column.")
	m.describe("cadd_pcg_block_iterations_total", "Blocked-PCG iterations (matrix traversals) spent building embedding oracles; iterations_total / block_iterations_total is the SpMM amortization factor.")
	m.describe("cadd_pcg_cold_estimate_total", "Estimated PCG iterations the same builds would have cost without warm starts.")
	m.describe("cadd_precond_probes_total", "Embedding builds that picked the solver preconditioner by probing (cold builds and drift re-probes), by the kind picked; other builds keep the stream's pin.")
	m.describe("cadd_sparsified_edges_total", "Edges dropped by the effective-resistance pre-solver cap (sparsify_target_nnz).")
	m.describe("cadd_slow_pushes_total", "Pushes that crossed the stream's slow-push logging threshold.")
	m.describe("cadd_recovered_streams_total", "Streams restored from their on-disk journal at boot.")
	m.describe("cadd_recovery_failures_total", "Stream journals that could not be restored (directory left for inspection).")
	m.describe("cadd_wal_truncations_total", "Recoveries that cut a torn or corrupt tail off a stream's WAL.")
	m.describe("cadd_wal_errors_total", "Journal write failures; the stream keeps serving with durability disabled.")
	m.describe("cadd_duplicate_pushes_total", "Instance-indexed re-pushes acked without re-scoring (idempotent retries).")
	m.describe("cadd_hibernations_total", "Streams moved from resident to hibernated (snapshot journaled, state dropped).")
	m.describe("cadd_rehydrations_total", "Hibernated streams restored to resident on access.")
	m.describeHistogram("cadd_push_seconds",
		"Per-snapshot scoring latency (oracle build + transition scoring), by oracle kind.", pushBuckets)
	m.describeHistogram("cadd_push_stage_seconds",
		"Per-stage push latency (oracle, score, delta_select, threshold), from the pipeline trace spans.", stageBuckets)
	m.describeHistogram("cadd_rehydrate_seconds",
		"Latency of restoring a hibernated stream to resident (journal replay + detector restore).", rehydrateBuckets)

	cfg = cfg.withDefaults()
	capacity := cfg.MemBudgetBytes
	if capacity <= 0 {
		capacity = unlimitedLedgerCap
	}
	s := &Server{
		cfg:     cfg,
		metrics: m,
		ledger:  budget.New(capacity),
		lru:     hibernate.NewLRU(),
		streams: make(map[string]*entry),
		started: time.Now(),
	}
	if cfg.MemBudgetBytes > 0 || cfg.HibernateAfter > 0 {
		if cfg.DataDir == "" {
			cfg.Logger.Warn("memory governance requires a data dir; budget and idle hibernation disabled")
		} else {
			s.startGovernor()
		}
	}
	return s
}

// CreateStream registers and starts a new stream. It fails on invalid
// ids or configs, duplicate ids, a full registry, a shut-down server,
// or (with durability on) an id whose directory holds unrecovered
// journal data.
func (s *Server) CreateStream(id string, cfg StreamConfig) error {
	if err := validateStreamID(id); err != nil {
		return err
	}
	cfg = cfg.withDefaults(s.cfg.DefaultQueueSize, s.cfg.DefaultTraceBuffer)
	if cfg.SLOPushSeconds == 0 {
		// Resolved here (not in withDefaults) so the persisted config
		// carries the effective objective and recovery keeps it even if
		// the server flag later changes.
		cfg.SLOPushSeconds = s.cfg.SLOPushP99
	}
	if _, err := cfg.coreConfig(); err != nil {
		return fmt.Errorf("service: stream %q: %w", id, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		return fmt.Errorf("service: server is shutting down")
	}
	if _, ok := s.streams[id]; ok {
		return fmt.Errorf("service: stream %q already exists", id)
	}
	if len(s.streams) >= s.cfg.MaxStreams {
		return fmt.Errorf("service: stream limit %d reached", s.cfg.MaxStreams)
	}
	var j *journal
	if s.cfg.DataDir != "" {
		dir := streamDir(s.cfg.DataDir, id)
		if _, err := os.Stat(filepath.Join(dir, streamConfigFile)); err == nil {
			return fmt.Errorf("service: stream %q has unrecovered journal data at %s; remove the directory to discard it", id, dir)
		}
		var err error
		j, err = newJournal(s.cfg.DataDir, id, cfg, s.cfg.SnapshotEvery, s.cfg.Fsync, s.cfg.Logger, s.metrics, s.cfg.Replication)
		if err != nil {
			return err
		}
	}
	st, err := newStream(id, cfg, s.metrics, s.cfg.Logger, j, s.sizedFor(id))
	if err != nil {
		if j != nil {
			j.log.Close()
			os.RemoveAll(streamDir(s.cfg.DataDir, id))
		}
		return fmt.Errorf("service: stream %q: %w", id, err)
	}
	s.streams[id] = &entry{id: id, st: st}
	s.lru.Touch(id, time.Now())
	s.cfg.Logger.Info("stream created", "stream", id, "variant", cfg.Variant, "l", cfg.L,
		"queue_size", cfg.QueueSize, "trace_buffer", cfg.TraceBuffer)
	return nil
}

// DeleteStream stops intake, waits for the stream's queue to drain,
// and drops it from the registry along with its journal directory.
// Deleting a hibernated stream only removes the stub and the journal —
// there is no worker to drain. False when the id is unknown.
func (s *Server) DeleteStream(id string) bool {
	s.mu.Lock()
	e, ok := s.streams[id]
	delete(s.streams, id)
	s.mu.Unlock()
	if !ok {
		return false
	}
	e.mu.Lock()
	st := e.st
	e.st, e.stub = nil, nil
	e.mu.Unlock()
	if st != nil {
		st.close()
		<-st.drained()
	}
	s.lru.Remove(id)
	s.ledger.Forget(id)
	if s.cfg.DataDir != "" {
		if err := os.RemoveAll(streamDir(s.cfg.DataDir, id)); err != nil {
			s.cfg.Logger.Error("removing stream journal failed", "stream", id, "err", err)
		}
	}
	if s.cfg.Replication != nil {
		s.cfg.Replication.ShipDelete(id)
	}
	s.cfg.Logger.Info("stream deleted", "stream", id)
	return true
}

// StreamInfo returns one stream's status — for a hibernated stream,
// the status captured at hibernation (with State set accordingly) —
// without rehydrating anything.
func (s *Server) StreamInfo(id string) (StreamInfo, bool) {
	s.mu.RLock()
	e := s.streams[id]
	s.mu.RUnlock()
	if e == nil {
		return StreamInfo{}, false
	}
	return e.infoSnapshot()
}

// infoSnapshot returns the entry's current status whichever state it
// is in.
func (e *entry) infoSnapshot() (StreamInfo, bool) {
	e.mu.Lock()
	st, stub := e.st, e.stub
	e.mu.Unlock()
	switch {
	case st != nil:
		info := st.info()
		info.State = StreamStateResident
		return info, true
	case stub != nil:
		return stub.info, true
	default:
		return StreamInfo{}, false // entry mid-delete
	}
}

// ListStreams returns every registered stream's status — hibernated
// ones included — ordered by id.
func (s *Server) ListStreams() []StreamInfo {
	s.mu.RLock()
	entries := make([]*entry, 0, len(s.streams))
	for _, e := range s.streams {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	out := make([]StreamInfo, 0, len(entries))
	for _, e := range entries {
		if info, ok := e.infoSnapshot(); ok {
			out = append(out, info)
		}
	}
	return out
}

// NumStreams returns the registered stream count (resident plus
// hibernated).
func (s *Server) NumStreams() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.streams)
}

// Shutdown stops the governor, then stops intake on every resident
// stream and waits for all queues to drain (so accepted snapshots are
// never silently dropped), or for ctx to expire, whichever comes
// first. Streams hibernated mid-session already flushed and closed
// their WAL handles when they hibernated, so only residents need
// draining. Call it after http.Server.Shutdown has stopped new
// requests.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.shutdown
	s.shutdown = true
	entries := make([]*entry, 0, len(s.streams))
	for _, e := range s.streams {
		entries = append(entries, e)
	}
	s.mu.Unlock()

	// Joining the governor first means an in-flight hibernation
	// finishes its snapshot + WAL close before we enumerate residents,
	// and no new hibernation or rehydration starts after.
	if !already {
		s.stopGovernor()
	}

	streams := make([]*stream, 0, len(entries))
	for _, e := range entries {
		e.mu.Lock()
		if e.st != nil {
			streams = append(streams, e.st)
		}
		e.mu.Unlock()
	}
	for _, st := range streams {
		st.close()
	}
	for _, st := range streams {
		select {
		case <-st.drained():
		case <-ctx.Done():
			return fmt.Errorf("service: shutdown: %w (stream %q still draining)", ctx.Err(), st.id)
		}
	}
	return nil
}

// validateStreamID keeps ids path- and label-safe.
func validateStreamID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("service: stream id must be 1–64 characters, got %d", len(id))
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("service: stream id %q contains %q (want [a-zA-Z0-9._-])", id, r)
		}
	}
	return nil
}
