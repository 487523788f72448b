package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// nodeStatusz is a canned single-node /statusz document exercising every
// section cadtop renders.
const nodeStatusz = `{
  "status": "ok",
  "node": "cadd-a",
  "version": "v1.2.3",
  "go_version": "go1.22.0",
  "uptime_seconds": 3723,
  "streams": {"total": 2, "resident": 1, "hibernated": 1},
  "memory": {"resident_bytes": 1048576, "budget_bytes": 2097152},
  "ingest": {"ingested": 10, "processed": 9, "rejected": 1, "push_errors": 0, "slow_pushes": 2},
  "runtime": {"goroutines": 12, "heap_alloc_bytes": 524288, "gc_cycles": 3,
              "last_gc_pause_seconds": 0.0001, "sched_latency_p99_seconds": 0.00005},
  "replication": {"target": "http://standby:8080", "lag_records": 4, "shipped": 100, "dropped": 0},
  "slo": {"prices": {"objective_seconds": 0.25,
          "burn_rates": [{"window": "5m0s", "total": 9, "slow": 0, "burn_rate": 0},
                         {"window": "1h0m0s", "total": 9, "slow": 0, "burn_rate": 0}]}},
  "push_latency": {"prices": {"samples": 9, "p50_seconds": 0.002, "p99_seconds": 0.017}},
  "solver": {"prices": {"precond": "jacobi"}},
  "slowest_pushes": [{"stream": "prices", "trace_id": "deadbeefdeadbeefdeadbeefdeadbeef", "seconds": 0.017}]
}`

// routerStatusz is a canned router document with one live node, one
// unreachable node and peer health.
const routerStatusz = `{
  "status": "ok",
  "role": "router",
  "version": "v1.2.3",
  "go_version": "go1.22.0",
  "uptime_seconds": 60,
  "peers": {"cadd-a": true, "cadd-b": false},
  "nodes": {
    "cadd-a": ` + nodeStatusz + `,
    "cadd-b": {"status": "unreachable"}
  }
}`

// metricsBody builds a /metrics exposition whose processed counter can
// advance between polls to drive the rate views.
func metricsBody(processed int) string {
	return fmt.Sprintf(`# HELP cadd_snapshots_processed_total Snapshots fully processed.
# TYPE cadd_snapshots_processed_total counter
cadd_snapshots_processed_total{stream="prices"} %d
cadd_snapshots_processed_total{stream="trades"} 1
`, processed)
}

// statuszServer serves canned /statusz and /metrics, bumping the
// processed counter on every metrics scrape so deltas are non-zero.
func statuszServer(t *testing.T, statusz string) *httptest.Server {
	t.Helper()
	var scrapes atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, statusz)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, metricsBody(int(5+10*scrapes.Add(1))))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestCadtopNodeFrame(t *testing.T) {
	srv := statuszServer(t, nodeStatusz)
	var out, errs strings.Builder
	code := realMain([]string{"-addr", srv.URL, "-frames", "3", "-interval", "10ms", "-plain"}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs.String())
	}
	got := out.String()
	for _, want := range []string{
		"node cadd-a",
		"cadd v1.2.3 go1.22.0",
		"up 1h2m",
		"streams   total 2   resident 1   hibernated 1",
		"budget 2.0MiB (50%)",
		"processed 9   rejected 1",
		"goroutines 12",
		"replicate → http://standby:8080   lag 4",
		"throughput (pushes/s",
		"per-stream pushes/s",
		"prices",
		"trades",
		"burn rates",
		"5m0s 0.0x",
		"precond",
		"jacobi",
		"slowest recent pushes",
		"trace deadbeefdeadbeefdeadbeefdeadbeef",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("frame missing %q\n--- output ---\n%s", want, got)
		}
	}
	if n := strings.Count(got, "cadtop — "); n != 3 {
		t.Errorf("rendered %d frames, want 3", n)
	}
	if strings.Contains(got, "\x1b[") {
		t.Errorf("-plain output contains ANSI escapes")
	}
}

func TestCadtopRouterFrame(t *testing.T) {
	srv := statuszServer(t, routerStatusz)
	var out, errs strings.Builder
	code := realMain([]string{"-addr", srv.URL, "-frames", "1", "-plain"}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs.String())
	}
	got := out.String()
	for _, want := range []string{
		"(router)",
		"node        health  streams   resident  processed  repl lag",
		"cadd-a      ok",
		"UNREACHABLE",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("router frame missing %q\n--- output ---\n%s", want, got)
		}
	}
	// cadd-b is marked unhealthy in peers and unreachable in nodes.
	if !strings.Contains(got, "cadd-b      UNREACHABLE") {
		t.Errorf("cadd-b not shown unreachable\n%s", got)
	}
}

func TestCadtopUnreachableTarget(t *testing.T) {
	var out, errs strings.Builder
	code := realMain([]string{"-addr", "http://127.0.0.1:1", "-frames", "1"}, &out, &errs)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errs.String(), "cadtop:") {
		t.Errorf("stderr missing error prefix: %s", errs.String())
	}
}
