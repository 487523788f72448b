// Command cadtop is a polling terminal dashboard over a running cadd
// node or cluster router — `top` for the anomaly-localization service.
// It reads the /statusz JSON snapshot and the Prometheus /metrics
// exposition each interval and renders build identity, stream census,
// memory residency, ingest throughput (with a live rate sparkline),
// per-stream push-latency percentiles, SLO burn rates, the slowest
// recent pushes (with their trace ids, ready to paste into
// /debug/traces?trace=), runtime health from the Go sampler, and — when
// pointed at a router — the per-node breakdown of the whole cluster.
//
// Usage:
//
//	cadtop -addr http://localhost:8080              # single node
//	cadtop -addr http://localhost:9090 -interval 5s # cluster router
//	cadtop -addr http://localhost:8080 -frames 1 -plain  # one-shot, scriptable
//
// With -frames N it renders N frames and exits (0 = run until
// interrupted); -plain suppresses the ANSI clear-screen between frames
// so output can be piped or captured in tests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"dyngraph/internal/asciiplot"
	"dyngraph/internal/promtext"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cadtop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://localhost:8080", "base URL of a cadd node or cluster router")
	interval := fs.Duration("interval", 2*time.Second, "polling interval")
	frames := fs.Int("frames", 0, "render this many frames then exit (0 = until interrupted)")
	plain := fs.Bool("plain", false, "no ANSI clear between frames (pipe/test friendly)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	var prev *sample
	var rates []float64 // total processed-rate history for the sparkline
	for n := 0; *frames == 0 || n < *frames; n++ {
		if n > 0 {
			time.Sleep(*interval)
		}
		cur, err := poll(client, base)
		if err != nil {
			fmt.Fprintln(stderr, "cadtop:", err)
			return 1
		}
		if prev != nil {
			dt := cur.at.Sub(prev.at).Seconds()
			if dt > 0 {
				rates = append(rates, (cur.totalProcessed()-prev.totalProcessed())/dt)
				if len(rates) > sparklinePoints {
					rates = rates[len(rates)-sparklinePoints:]
				}
			}
		}
		if !*plain {
			fmt.Fprint(stdout, "\x1b[2J\x1b[H")
		}
		fmt.Fprint(stdout, render(base, cur, prev, rates))
		prev = cur
	}
	return 0
}

// sparklinePoints bounds the throughput history fed to the rate chart.
const sparklinePoints = 60

// sample is one poll of a node or router: its /statusz document, parsed
// /metrics samples, and when they were taken.
type sample struct {
	at      time.Time
	status  statusDoc
	metrics []promtext.Sample
}

// statusDoc mirrors the subset of /statusz cadtop renders. Node and
// router documents share the envelope; router adds role/peers/nodes,
// nodes add slo/push_latency/runtime/replication.
type statusDoc struct {
	Status        string  `json:"status"`
	Role          string  `json:"role"`
	Node          string  `json:"node"`
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Streams       *struct {
		Total      int `json:"total"`
		Resident   int `json:"resident"`
		Hibernated int `json:"hibernated"`
	} `json:"streams"`
	Memory *struct {
		ResidentBytes int64 `json:"resident_bytes"`
		BudgetBytes   int64 `json:"budget_bytes"`
	} `json:"memory"`
	Ingest *struct {
		Ingested   int64 `json:"ingested"`
		Processed  int64 `json:"processed"`
		Rejected   int64 `json:"rejected"`
		PushErrors int64 `json:"push_errors"`
		SlowPushes int64 `json:"slow_pushes"`
	} `json:"ingest"`
	SLO map[string]struct {
		ObjectiveSeconds float64 `json:"objective_seconds"`
		BurnRates        []struct {
			Window string  `json:"window"`
			Total  int64   `json:"total"`
			Slow   int64   `json:"slow"`
			Rate   float64 `json:"burn_rate"`
		} `json:"burn_rates"`
	} `json:"slo"`
	PushLatency map[string]struct {
		Samples    int     `json:"samples"`
		P50Seconds float64 `json:"p50_seconds"`
		P99Seconds float64 `json:"p99_seconds"`
	} `json:"push_latency"`
	Solver map[string]struct {
		Precond string `json:"precond"`
	} `json:"solver"`
	SlowestPushes []struct {
		Stream  string  `json:"stream"`
		TraceID string  `json:"trace_id"`
		Seconds float64 `json:"seconds"`
	} `json:"slowest_pushes"`
	Runtime *struct {
		Goroutines          int     `json:"goroutines"`
		HeapAllocBytes      uint64  `json:"heap_alloc_bytes"`
		HeapObjects         uint64  `json:"heap_objects"`
		GCCycles            uint32  `json:"gc_cycles"`
		LastGCPauseSeconds  float64 `json:"last_gc_pause_seconds"`
		SchedLatencyP99     float64 `json:"sched_latency_p99_seconds"`
		GCPauseTotalSeconds float64 `json:"gc_pause_total_seconds"`
	} `json:"runtime"`
	Replication *struct {
		Target      string `json:"target"`
		LagRecords  int64  `json:"lag_records"`
		Shipped     int64  `json:"shipped"`
		Dropped     int64  `json:"dropped"`
		LostStreams int64  `json:"lost_streams"`
	} `json:"replication"`
	Peers map[string]bool            `json:"peers"`
	Nodes map[string]json.RawMessage `json:"nodes"`
}

// poll fetches and parses one /statusz + /metrics pair.
func poll(client *http.Client, base string) (*sample, error) {
	s := &sample{at: time.Now()}
	raw, err := get(client, base+"/statusz")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &s.status); err != nil {
		return nil, fmt.Errorf("/statusz: %w", err)
	}
	body, err := get(client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if s.metrics, err = promtext.Parse(string(body)); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return s, nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return body, nil
}

// totalProcessed sums cadd_snapshots_processed_total across all streams
// (and, behind a router, all instances) — the dashboard's throughput
// numerator.
func (s *sample) totalProcessed() float64 {
	var total float64
	for _, m := range s.metrics {
		if m.Name == "cadd_snapshots_processed_total" {
			total += m.Value
		}
	}
	return total
}

// processedByStream splits the processed counter per stream label.
func (s *sample) processedByStream() map[string]float64 {
	out := map[string]float64{}
	for _, m := range s.metrics {
		if m.Name == "cadd_snapshots_processed_total" {
			out[m.Label("stream")] += m.Value
		}
	}
	return out
}

// render draws one frame. prev may be nil (first frame: no rates yet).
func render(base string, cur, prev *sample, rates []float64) string {
	var b strings.Builder
	st := &cur.status
	title := "node"
	if st.Role == "router" {
		title = "router"
	} else if st.Node != "" {
		title = "node " + st.Node
	}
	fmt.Fprintf(&b, "cadtop — %s (%s)  cadd %s %s  up %s  status %s\n",
		base, title, st.Version, st.GoVersion, formatDuration(st.UptimeSeconds), st.Status)
	fmt.Fprintf(&b, "%s\n", strings.Repeat("─", 72))

	if st.Streams != nil {
		fmt.Fprintf(&b, "streams   total %d   resident %d   hibernated %d\n",
			st.Streams.Total, st.Streams.Resident, st.Streams.Hibernated)
	}
	if st.Memory != nil {
		line := fmt.Sprintf("memory    resident %s", formatBytes(st.Memory.ResidentBytes))
		if st.Memory.BudgetBytes > 0 {
			line += fmt.Sprintf("   budget %s (%.0f%%)", formatBytes(st.Memory.BudgetBytes),
				100*float64(st.Memory.ResidentBytes)/float64(st.Memory.BudgetBytes))
		}
		b.WriteString(line + "\n")
	}
	if st.Ingest != nil {
		fmt.Fprintf(&b, "ingest    processed %d   rejected %d   errors %d   slow %d\n",
			st.Ingest.Processed, st.Ingest.Rejected, st.Ingest.PushErrors, st.Ingest.SlowPushes)
	}
	if st.Runtime != nil {
		fmt.Fprintf(&b, "runtime   goroutines %d   heap %s   gc %d (last pause %s, sched p99 %s)\n",
			st.Runtime.Goroutines, formatBytes(int64(st.Runtime.HeapAllocBytes)),
			st.Runtime.GCCycles, formatSeconds(st.Runtime.LastGCPauseSeconds),
			formatSeconds(st.Runtime.SchedLatencyP99))
	}
	if st.Replication != nil && st.Replication.Target != "" {
		fmt.Fprintf(&b, "replicate → %s   lag %d   shipped %d   dropped %d\n",
			st.Replication.Target, st.Replication.LagRecords,
			st.Replication.Shipped, st.Replication.Dropped)
	}

	b.WriteString(renderRates(rates))
	b.WriteString(renderStreams(cur, prev))
	b.WriteString(renderSLO(st))
	b.WriteString(renderSlowest(st))
	b.WriteString(renderCluster(st))
	return b.String()
}

// renderRates draws the total-throughput sparkline once two polls exist.
func renderRates(rates []float64) string {
	if len(rates) < 2 {
		return ""
	}
	xs := make([]float64, len(rates))
	for i := range xs {
		xs[i] = float64(i)
	}
	chart, err := asciiplot.Lines([]asciiplot.Series{{Name: "pushes/s", X: xs, Y: rates}}, 60, 6)
	if err != nil {
		return ""
	}
	return "\nthroughput (pushes/s, last " + fmt.Sprint(len(rates)) + " polls)\n" + chart
}

// renderStreams shows per-stream throughput (bar row of deltas against
// the previous poll) — the "who is hot right now" view.
func renderStreams(cur, prev *sample) string {
	if prev == nil {
		return ""
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return ""
	}
	before, now := prev.processedByStream(), cur.processedByStream()
	var names []string
	for name := range now {
		names = append(names, name)
	}
	sort.Strings(names)
	var labels []string
	var values []float64
	for _, name := range names {
		labels = append(labels, clip(name, 12))
		values = append(values, (now[name]-before[name])/dt)
	}
	if len(labels) == 0 {
		return ""
	}
	bars, err := asciiplot.Bars(labels, values, 40)
	if err != nil {
		return ""
	}
	return "\nper-stream pushes/s\n" + bars
}

// renderSLO tabulates each stream's objective, recent percentiles,
// pinned solver preconditioner and multi-window burn rates. A burn
// rate above 1 is eating error budget.
func renderSLO(st *statusDoc) string {
	if len(st.SLO) == 0 && len(st.PushLatency) == 0 && len(st.Solver) == 0 {
		return ""
	}
	seen := map[string]bool{}
	var names []string
	for name := range st.SLO {
		seen[name] = true
		names = append(names, name)
	}
	for name := range st.PushLatency {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for name := range st.Solver {
		if !seen[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("\nstream          objective       p50       p99  precond   burn rates\n")
	for _, name := range names {
		obj, burns := "      -", "-"
		if s, ok := st.SLO[name]; ok {
			obj = formatSeconds(s.ObjectiveSeconds)
			var parts []string
			for _, br := range s.BurnRates {
				parts = append(parts, fmt.Sprintf("%s %.1fx", br.Window, br.Rate))
			}
			if len(parts) > 0 {
				burns = strings.Join(parts, "  ")
			}
		}
		p50, p99 := "      -", "      -"
		if l, ok := st.PushLatency[name]; ok {
			p50, p99 = formatSeconds(l.P50Seconds), formatSeconds(l.P99Seconds)
		}
		precond := "-"
		if sv, ok := st.Solver[name]; ok && sv.Precond != "" {
			precond = sv.Precond
		}
		fmt.Fprintf(&b, "%-15s %9s %9s %9s  %-7s   %s\n", clip(name, 15), obj, p50, p99, precond, burns)
	}
	return b.String()
}

// renderSlowest lists the node's slowest recent pushes with their trace
// ids — each pastes straight into /debug/traces?trace=<id>.
func renderSlowest(st *statusDoc) string {
	if len(st.SlowestPushes) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("\nslowest recent pushes\n")
	for _, sp := range st.SlowestPushes {
		fmt.Fprintf(&b, "  %9s  %-15s  trace %s\n",
			formatSeconds(sp.Seconds), clip(sp.Stream, 15), sp.TraceID)
	}
	return b.String()
}

// renderCluster, on a router document, summarizes every node: health,
// census, residency, throughput and replication lag.
func renderCluster(st *statusDoc) string {
	if st.Role != "router" {
		return ""
	}
	var ids []string
	for id := range st.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	b.WriteString("\nnode        health  streams   resident  processed  repl lag\n")
	for _, id := range ids {
		var nd statusDoc
		if err := json.Unmarshal(st.Nodes[id], &nd); err != nil || nd.Status != "ok" {
			fmt.Fprintf(&b, "%-11s %s\n", clip(id, 11), "UNREACHABLE")
			continue
		}
		health := "ok"
		if up, known := st.Peers[id]; known && !up {
			health = "down"
		}
		streams, resident, processed, lag := "-", "-", "-", "-"
		if nd.Streams != nil {
			streams = fmt.Sprint(nd.Streams.Total)
		}
		if nd.Memory != nil {
			resident = formatBytes(nd.Memory.ResidentBytes)
		}
		if nd.Ingest != nil {
			processed = fmt.Sprint(nd.Ingest.Processed)
		}
		if nd.Replication != nil {
			lag = fmt.Sprint(nd.Replication.LagRecords)
		}
		fmt.Fprintf(&b, "%-11s %-7s %7s %10s %10s %9s\n",
			clip(id, 11), health, streams, resident, processed, lag)
	}
	return b.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func formatDuration(seconds float64) string {
	d := time.Duration(seconds * float64(time.Second))
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%dh%dm", int(d.Hours()), int(d.Minutes())%60)
	case d >= time.Minute:
		return fmt.Sprintf("%dm%ds", int(d.Minutes()), int(d.Seconds())%60)
	default:
		return fmt.Sprintf("%ds", int(d.Seconds()))
	}
}

func formatSeconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
