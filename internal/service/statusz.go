package service

import (
	"net/http"
	"sort"
	"time"

	"dyngraph/internal/buildinfo"
	"dyngraph/internal/obs"
)

// statuszStreams is the stream-census section of /statusz.
type statuszStreams struct {
	Total      int `json:"total"`
	Resident   int `json:"resident"`
	Hibernated int `json:"hibernated"`
}

// statuszMemory is the budget-residency section. BudgetBytes is 0 when
// no budget is configured.
type statuszMemory struct {
	ResidentBytes int64 `json:"resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes,omitempty"`
}

// statuszIngest rolls the per-stream ingest counters up to node totals.
type statuszIngest struct {
	Ingested   int64 `json:"ingested"`
	Processed  int64 `json:"processed"`
	Rejected   int64 `json:"rejected"`
	PushErrors int64 `json:"push_errors"`
	SlowPushes int64 `json:"slow_pushes"`
}

// statuszDurability rolls up the journal/WAL health counters.
type statuszDurability struct {
	WALErrors        int64 `json:"wal_errors"`
	WALTruncations   int64 `json:"wal_truncations"`
	Hibernations     int64 `json:"hibernations"`
	Rehydrations     int64 `json:"rehydrations"`
	RecoveredStreams int64 `json:"recovered_streams"`
	RecoveryFailures int64 `json:"recovery_failures"`
}

// statuszSLO is one stream's latency objective and its live multi-window
// burn rates.
type statuszSLO struct {
	ObjectiveSeconds float64        `json:"objective_seconds"`
	BurnRates        []obs.BurnRate `json:"burn_rates"`
}

// statuszLatency summarizes one stream's recent push latencies, computed
// from the root spans retained in its trace ring (so the window is the
// trace buffer, typically the last 64 pushes).
type statuszLatency struct {
	Samples    int     `json:"samples"`
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// statuszSolver is one stream's embedding-solver state: the
// preconditioner kind the stream is pinned to.
type statuszSolver struct {
	Precond string `json:"precond"`
}

// statuszSlowPush identifies one of the node's slowest recent pushes,
// with enough identity (trace id, request id) to pull its full span
// tree from /debug/traces.
type statuszSlowPush struct {
	Stream    string  `json:"stream"`
	Instance  int64   `json:"instance"`
	TraceID   string  `json:"trace_id,omitempty"`
	RequestID string  `json:"request_id,omitempty"`
	Seconds   float64 `json:"seconds"`
}

// slowestPushLimit bounds the /statusz slowest-pushes list.
const slowestPushLimit = 5

// Statusz assembles the node's operational snapshot: build identity,
// uptime, stream census, budget residency, ingest and durability
// counter rollups, per-stream SLO burn rates, recent push-latency
// percentiles and pinned solver preconditioner, the slowest recent
// pushes, and any pluggable sections from Config.StatusSections
// (runtime sampler, cluster peer health, replication progress).
// Returned as a map so section names stay data-driven; json.Marshal
// orders the keys alphabetically.
func (s *Server) Statusz() map[string]any {
	infos := s.ListStreams()
	resident, hibernated := s.stateCounts()
	doc := map[string]any{
		"status":         "ok",
		"version":        buildinfo.Version,
		"go_version":     buildinfo.GoVersion(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"streams": statuszStreams{
			Total:      len(infos),
			Resident:   resident,
			Hibernated: hibernated,
		},
		"memory": statuszMemory{
			ResidentBytes: s.AccountedBytes(),
			BudgetBytes:   s.cfg.MemBudgetBytes,
		},
		"ingest": statuszIngest{
			Ingested:   int64(s.metrics.counterTotal("cadd_snapshots_ingested_total")),
			Processed:  int64(s.metrics.counterTotal("cadd_snapshots_processed_total")),
			Rejected:   int64(s.metrics.counterTotal("cadd_snapshots_rejected_total")),
			PushErrors: int64(s.metrics.counterTotal("cadd_push_errors_total")),
			SlowPushes: int64(s.metrics.counterTotal("cadd_slow_pushes_total")),
		},
		"durability": statuszDurability{
			WALErrors:        int64(s.metrics.counterTotal("cadd_wal_errors_total")),
			WALTruncations:   int64(s.metrics.counterTotal("cadd_wal_truncations_total")),
			Hibernations:     int64(s.metrics.counterTotal("cadd_hibernations_total")),
			Rehydrations:     int64(s.metrics.counterTotal("cadd_rehydrations_total")),
			RecoveredStreams: int64(s.metrics.counterTotal("cadd_recovered_streams_total")),
			RecoveryFailures: int64(s.metrics.counterTotal("cadd_recovery_failures_total")),
		},
	}
	if s.cfg.NodeID != "" {
		doc["node"] = s.cfg.NodeID
	}

	slo := make(map[string]statuszSLO)
	latency := make(map[string]statuszLatency)
	solvers := make(map[string]statuszSolver)
	var slowest []statuszSlowPush
	for _, st := range s.streamsByID("") {
		if kind, _ := st.precond.Load().(string); kind != "" {
			solvers[st.id] = statuszSolver{Precond: kind}
		}
		if st.slo != nil {
			slo[st.id] = statuszSLO{
				ObjectiveSeconds: st.slo.Objective(),
				BurnRates:        st.slo.BurnRates(),
			}
		}
		var durs []float64
		for _, tr := range st.traces() {
			if tr.Name() != "push" {
				continue
			}
			sec := tr.Duration().Seconds()
			durs = append(durs, sec)
			sp := statuszSlowPush{Stream: st.id, Seconds: sec}
			if a, ok := tr.Attr("instance"); ok {
				sp.Instance = a.Int
			}
			if a, ok := tr.Attr(obs.AttrTraceID); ok {
				sp.TraceID = a.Str
			}
			if a, ok := tr.Attr("request_id"); ok {
				sp.RequestID = a.Str
			}
			slowest = append(slowest, sp)
		}
		if len(durs) > 0 {
			sort.Float64s(durs)
			latency[st.id] = statuszLatency{
				Samples:    len(durs),
				P50Seconds: quantileSorted(durs, 0.50),
				P99Seconds: quantileSorted(durs, 0.99),
			}
		}
	}
	if len(slo) > 0 {
		doc["slo"] = slo
	}
	if len(latency) > 0 {
		doc["push_latency"] = latency
	}
	if len(solvers) > 0 {
		doc["solver"] = solvers
	}
	if len(slowest) > 0 {
		sort.Slice(slowest, func(i, j int) bool { return slowest[i].Seconds > slowest[j].Seconds })
		if len(slowest) > slowestPushLimit {
			slowest = slowest[:slowestPushLimit]
		}
		doc["slowest_pushes"] = slowest
	}

	for _, sec := range s.cfg.StatusSections {
		if sec.Name == "" || sec.Value == nil {
			continue
		}
		doc[sec.Name] = sec.Value()
	}
	return doc
}

// quantileSorted reads quantile q from an ascending-sorted sample via
// the ceil(q·n) upper order statistic (the same convention as the
// adaptive slow-push threshold).
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	idx := int(q*float64(n) + 0.999999)
	if idx < 1 {
		idx = 1
	}
	if idx > n {
		idx = n
	}
	return sorted[idx-1]
}

// handleStatusz serves the operational snapshot; /healthz?verbose=1
// aliases here so probes and operators share one document.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Statusz())
}
