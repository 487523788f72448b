// Command pushbench is the repository's end-to-end benchmark. It boots
// the real cadd binary on loopback (temporary -data-dir, -fsync off),
// drives it with service.Client from this process with snapshots
// generated from --seed, checks the served reports against an
// in-process replay, and prints one JSON result line.
//
// Run it from the repository root through pushbench/run.sh, which
// builds cadd and this program first:
//
//	bash pushbench/run.sh --workload trickle --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured
// with tracing off; with --trace 1 it holds the per-layer metrics of a
// separate traced run (see layers.go). BENCHMARK.json at the
// repository root lists both, and baseline.json here records measured
// values with their provenance. The benchmark's own tests run with
// `go test .` in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"dyngraph/internal/commute"
	"dyngraph/internal/core"
	"dyngraph/internal/service"
	"dyngraph/internal/solver"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload *workload
	seed     int64
	window   time.Duration
	trace    bool
	caddBin  string
	workDir  string
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("pushbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: trickle, churn or neartree_read")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Int("seconds", 15, "length of the timed push window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	caddBin := fs.String("cadd", "", "path of the cadd binary to benchmark")
	workDir := fs.String("work-dir", "", "directory for cadd data dirs, the replay journal and the Chrome trace")
	commit := fs.String("commit", "unknown", "commit of the code under test, printed as provenance")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || *caddBin == "" || *workDir == "" {
		fmt.Fprintf(os.Stderr, "pushbench: need --workload (trickle|churn|neartree_read), --seconds ≥ 1, --trace 0|1, --cadd and --work-dir (%v)\n", err)
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "pushbench:", err)
		return 1
	}
	opt := options{
		workload: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, caddBin: *caddBin, workDir: *workDir,
	}
	fmt.Fprintf(os.Stderr, "pushbench: workload=%s seed=%d seconds=%d trace=%d %s\n",
		w.name, opt.seed, *seconds, *trace, provenance(*commit))

	var res result
	if opt.trace {
		res, err = runTraced(opt)
	} else {
		res, err = runEndToEnd(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pushbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pushbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// provenance names the code, toolchain and machine a result was
// measured on.
func provenance(commit string) string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("commit=%s go=%s GOMAXPROCS=%d cpu=%q", commit, runtime.Version(), runtime.GOMAXPROCS(0), cpu)
}

// streamConfig is the served fast-path configuration every stream
// uses. traceBuffer < 0 turns push tracing off.
func streamConfig(seed int64, traceBuffer int) service.StreamConfig {
	return service.StreamConfig{
		L:                  5,
		K:                  12,
		Seed:               seed,
		ExactCutoff:        1,
		SharedProjections:  true,
		IncrementalUpdates: true,
		SolverTol:          1e-5,
		MaxHistory:         32,
		TraceBuffer:        traceBuffer,
	}
}

// detectorConfig is the core configuration cadd builds for c.
func detectorConfig(c service.StreamConfig) core.Config {
	return core.Config{
		Variant: core.VariantCAD,
		Commute: commute.Config{
			K:                  c.K,
			Seed:               c.Seed,
			SharedProjections:  c.SharedProjections,
			IncrementalUpdates: c.IncrementalUpdates,
			Solver:             solver.Options{Tol: c.SolverTol},
		},
		ExactCutoff: c.ExactCutoff,
	}
}

// newDetector builds the in-process detector cadd runs for c.
func newDetector(c service.StreamConfig) *core.OnlineDetector {
	det := core.NewOnline(detectorConfig(c), c.L)
	det.SetMaxHistory(c.MaxHistory)
	return det
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is left as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// withTimeout bounds one control-plane call.
func withTimeout() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), time.Minute)
}
