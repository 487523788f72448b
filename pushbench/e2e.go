package main

import (
	"fmt"
	"os"
)

// setupReps boots cadd this many times per run; setup_s is the median
// of their set-up times, scaled towards the reference host (see
// calib.go), and the last boot serves the timed window.
const setupReps = 9

// endToEndMetrics lists every metric the untraced run reports: the
// set-up time, the push rate, client-observed latency and cadd's CPU
// time per push (these scaled towards the reference host, see
// calib.go; the raw figures go to stderr), push bytes on the wire,
// solver iterations per push from /metrics, and memory as the median
// of VmRSS samples (the VmHWM peak swings ±15% with GC timing and is
// reported per layer).
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"ref_pushes_per_s", "1/s"},
	{"ref_push_p50_ms", "ms"},
	{"ref_push_p90_ms", "ms"},
	{"ref_server_cpu_ms_per_push", "ms"},
	{"wire_bytes_per_push", "bytes"},
	{"pcg_iters_per_push", "count"},
	{"server_rss_p50_mb", "MB"},
}

// runEndToEnd measures the workload with tracing off and checks its
// outputs.
func runEndToEnd(opt options) (result, error) {
	w := opt.workload
	cal := newCalibrator()
	var setups []float64
	var s *session
	for rep := 0; rep < setupReps; rep++ {
		var err error
		if s, err = boot(opt, -1, cal); err != nil {
			return result{}, err
		}
		setups = append(setups, s.setup.Seconds())
		if rep < setupReps-1 {
			s.d.stop()
		}
	}
	defer s.d.stop()

	m, err := s.measure(w, opt.window)
	if err != nil {
		return result{}, err
	}
	final, modes, err := s.report()
	if err != nil {
		return result{}, err
	}
	s.d.stop()

	pushes := len(m.pushes.latMs)
	values := m.figures()
	values["setup_s"] = quantile(setups, 0.5) / m.wallScale()
	fmt.Fprintf(os.Stderr, "pushbench: %d pushes in %.2fs, %d beyond p90; peak RSS %.1fMB; %d reads (p50 %.2fms, open-loop generator late by ≤ %.1fms); raw setups %.3f s\n",
		pushes, m.elapsed.Seconds(), pushes-int(0.9*float64(pushes)), values["service.server_peak_rss_mb"],
		len(m.reads.latMs), values["service.report_p50_ms"], m.reads.maxLagMs, setups)
	fmt.Fprintf(os.Stderr, "pushbench: %d calibration slices, mean %.3fms (reference %.1fms); raw push p50 %.2fms p90 %.2fms, %.3f pushes/s, cadd CPU %.2fms/push\n",
		len(m.calWallMs), values["host.calib_slice_ms"], calibRefMs,
		values["raw.push_p50_ms"], values["raw.push_p90_ms"], values["raw.pushes_per_s"], values["raw.server_cpu_ms_per_push"])

	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	for _, spec := range endToEndMetrics {
		res.Metrics[spec.name] = metric{values[spec.name], spec.unit}
	}
	if res.Correct {
		if err := verify(opt, s.cfg, m.pushes, final, modes); err != nil {
			fmt.Fprintln(os.Stderr, "pushbench: check failed:", err)
			res.Correct = false
		}
	}
	return res, nil
}
