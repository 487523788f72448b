package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dyngraph/internal/core"
	"dyngraph/internal/promtext"
	"dyngraph/internal/service"
)

// streamName is the one stream every workload pushes to.
const streamName = "s0"

// session is one booted cadd with the workload's stream created and
// its cold first snapshot acked.
type session struct {
	d      *daemon
	hc     *http.Client
	sent   *countingTransport
	client *service.Client
	cfg    service.StreamConfig
	seq    *sequence
	setup  time.Duration // cadd exec until the cold snapshot is acked
	cal    *calibrator
}

// countingTransport counts the request body bytes of every POST (the
// snapshot pushes) it carries.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && req.ContentLength > 0 {
		c.bytes.Add(req.ContentLength)
	}
	return c.base.RoundTrip(req)
}

// newHTTPClient returns the load generator's client: at most two
// connections to cadd (the pusher and the reader), counting push
// bytes.
func newHTTPClient() (*http.Client, *countingTransport) {
	tr := service.NewPooledTransport()
	tr.MaxConnsPerHost = 2
	ct := &countingTransport{base: tr}
	return &http.Client{Timeout: 2 * time.Minute, Transport: ct}, ct
}

// boot generates the workload's sequence, then execs cadd, creates the
// stream and pushes its instance 0, timing from exec to the ack. The
// session calibrates its window with cal.
func boot(opt options, traceBuffer int, cal *calibrator) (*session, error) {
	s := &session{
		cfg: streamConfig(opt.seed, traceBuffer),
		seq: newSequence(opt.workload, opt.seed),
		cal: cal,
	}
	s.hc, s.sent = newHTTPClient()
	start := time.Now()
	d, err := startDaemon(opt.caddBin, opt.workDir)
	if err != nil {
		return nil, err
	}
	s.d = d
	s.client = service.NewClient(d.base, s.hc)
	ctx, cancel := withTimeout()
	defer cancel()
	if err := s.client.CreateStream(ctx, streamName, s.cfg); err != nil {
		d.stop()
		return nil, fmt.Errorf("create stream: %w", err)
	}
	if _, err := s.client.PushSnapshot(ctx, streamName, s.seq.next(), true); err != nil {
		d.stop()
		return nil, fmt.Errorf("cold push: %w", err)
	}
	s.setup = time.Since(start)
	return s, nil
}

// verifyInstances is how many leading instances the correctness check
// replays: past plantAt and past the 32-transition history window, so
// both the planted clique and eviction are covered. The pusher saves
// the stream's /report bytes right after this instance is acked.
const verifyInstances = 40

// pushLoad is what the closed-loop pusher saw.
type pushLoad struct {
	latMs     []float64 // successful sync pushes, client-observed, in order
	attempted int
	failed    int
	lastErr   error
	// acked counts instances cadd acknowledged, the cold one included.
	acked int
	// planted is cadd's report for the transition into plantAt.
	planted *core.TransitionJSON
	// checkpoint is the stream's /report after verifyInstances
	// instances.
	checkpoint []byte
	// calib is the time spent in calibration slices.
	calib time.Duration
}

// readLoad is what the GET /report reads saw.
type readLoad struct {
	latMs     []float64
	attempted int
	failed    int
	maxLagMs  float64 // open loop only: how late the generator sent, worst case
}

// idleReads is how many GET /report the benchmark sends after the
// window on a workload without a reader, one after another on the idle
// stream, so /report latency is reported for every workload without
// adding traffic to the pushes.
const idleReads = 20

// window runs the closed-loop sync pusher until d has passed (and it
// has acked verifyInstances instances), then waits for the in-flight
// requests, and returns the wall time from start to the last
// completion. A workload with readHz > 0 also runs the open-loop
// /report reader through the window.
func (s *session) window(w *workload, d time.Duration) (*pushLoad, *readLoad, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	pl := &pushLoad{acked: 1}
	rl := &readLoad{}
	var wg sync.WaitGroup
	if w.readHz > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.read(w.readHz, start, deadline, rl)
		}()
	}
	s.push(deadline, pl)
	wg.Wait()
	return pl, rl, time.Since(start)
}

func (s *session) reportURL() string { return s.d.base + "/v1/streams/" + streamName + "/report" }

// push is the closed-loop pusher: it sends the stream's next snapshot
// as soon as the previous one is acked, runs a calibration slice after
// each ack while the window is open (cadd is idle then), and saves the
// stream's /report once verifyInstances instances are acked. A failed
// push ends the loop, since the stream and the generator no longer
// agree on the instance.
func (s *session) push(deadline time.Time, l *pushLoad) {
	// A short window still runs until the correctness checkpoint.
	for time.Now().Before(deadline) || l.acked < verifyInstances {
		inst := s.seq.t
		snap := s.seq.next()
		ctx, cancel := withTimeout()
		t0 := time.Now()
		res, err := s.client.PushSnapshot(ctx, streamName, snap, true)
		lat := time.Since(t0)
		cancel()
		l.attempted++
		if err == nil && res.Instance != inst {
			err = fmt.Errorf("cadd acked instance %d, sent %d", res.Instance, inst)
		}
		if err != nil {
			l.failed++
			l.lastErr = err
			return
		}
		l.acked++
		l.latMs = append(l.latMs, ms(lat))
		if inst == plantAt {
			l.planted = res.Report
		}
		if time.Now().Before(deadline) {
			l.calib += s.cal.slice()
		}
		if l.acked != verifyInstances {
			continue
		}
		ctx, cancel = withTimeout()
		body, err := get(ctx, s.hc, s.reportURL())
		cancel()
		if err != nil {
			l.failed++
			l.lastErr = err
			return
		}
		l.checkpoint = body
	}
}

// read is the open-loop reader: GET /report every 1/hz seconds from
// start, each timed from when it was due, so a read stalled behind a
// push also charges the wait it imposes on the reads after it.
func (s *session) read(hz float64, start, deadline time.Time, rl *readLoad) {
	period := time.Duration(float64(time.Second) / hz)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		} else if lag := ms(-wait); lag > rl.maxLagMs {
			rl.maxLagMs = lag
		}
		ctx, cancel := withTimeout()
		_, err := get(ctx, s.hc, s.reportURL())
		cancel()
		rl.attempted++
		if err != nil {
			rl.failed++
			continue
		}
		rl.latMs = append(rl.latMs, ms(time.Since(due)))
	}
}

// readIdle sends idleReads GET /report one after another, each timed
// from its send.
func (s *session) readIdle(rl *readLoad) {
	for i := 0; i < idleReads; i++ {
		ctx, cancel := withTimeout()
		t0 := time.Now()
		_, err := get(ctx, s.hc, s.reportURL())
		lat := time.Since(t0)
		cancel()
		rl.attempted++
		if err != nil {
			rl.failed++
			continue
		}
		rl.latMs = append(rl.latMs, ms(lat))
	}
}

// report fetches the stream's /report bytes and its oracle build
// counts by mode from /metrics.
func (s *session) report() ([]byte, map[string]int, error) {
	ctx, cancel := withTimeout()
	defer cancel()
	body, err := get(ctx, s.hc, s.reportURL())
	if err != nil {
		return nil, nil, err
	}
	samples, err := s.metrics(ctx)
	if err != nil {
		return nil, nil, err
	}
	modes := map[string]int{}
	for _, mode := range []string{"cold", "warm", "incremental", "exact"} {
		modes[mode] = int(sumSeries(samples, "cadd_oracle_builds_total", "stream", streamName, "mode", mode))
	}
	return body, modes, nil
}

// metrics fetches and parses cadd's /metrics.
func (s *session) metrics(ctx context.Context) ([]promtext.Sample, error) {
	text, err := get(ctx, s.hc, s.d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	return promtext.Parse(string(text))
}

// measurement is what one timed window observed.
type measurement struct {
	pushes  *pushLoad
	reads   *readLoad
	elapsed time.Duration
	// calWallMs and calCPUMs hold the wall and CPU times of the
	// window's calibration slices in order, one after each push acked
	// in the window.
	calWallMs, calCPUMs []float64
	// cpuTicks is cadd's utime+stime over the window; pushBytes the
	// push request bodies sent in it.
	cpuTicks  int64
	pushBytes int64
	// rssMB samples cadd's VmRSS every 250ms through the window;
	// peakRSS is its VmHWM at the end.
	rssMB   []float64
	peakRSS int64
	// before and after are cadd's /metrics around the window.
	before, after     []promtext.Sample
	attempted, failed int
}

// measure runs the workload's timed window and collects what both the
// end-to-end and the traced run report from it.
func (s *session) measure(w *workload, d time.Duration) (*measurement, error) {
	ctx, cancel := withTimeout()
	defer cancel()
	m := &measurement{}
	var err error
	if m.before, err = s.metrics(ctx); err != nil {
		return nil, err
	}
	ticks0, err := s.d.cpuTicks()
	if err != nil {
		return nil, err
	}
	bytes0 := s.sent.bytes.Load()
	s.cal.reset()
	stop := make(chan struct{})
	sampled := make(chan []float64)
	go func() {
		var rss []float64
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- rss
				return
			case <-tick.C:
				if b, err := s.d.rssBytes(); err == nil {
					rss = append(rss, float64(b)/(1<<20))
				}
			}
		}
	}()
	m.pushes, m.reads, m.elapsed = s.window(w, d)
	m.calWallMs, m.calCPUMs = s.cal.wallMs, s.cal.cpuMs
	close(stop)
	if m.rssMB = <-sampled; len(m.rssMB) == 0 {
		return nil, fmt.Errorf("no cadd RSS sample in the window")
	}
	m.pushBytes = s.sent.bytes.Load() - bytes0
	ticks1, err := s.d.cpuTicks()
	if err != nil {
		return nil, err
	}
	m.cpuTicks = ticks1 - ticks0
	if m.peakRSS, err = s.d.peakRSSBytes(); err != nil {
		return nil, err
	}
	// After the CPU and memory readings, so they hold pushes only.
	if w.readHz == 0 {
		s.readIdle(m.reads)
	}
	ctx, cancel = withTimeout()
	defer cancel()
	if m.after, err = s.metrics(ctx); err != nil {
		return nil, err
	}
	m.attempted = m.pushes.attempted + m.reads.attempted
	m.failed = m.pushes.failed + m.reads.failed
	if m.pushes.lastErr != nil {
		fmt.Fprintln(os.Stderr, "pushbench: push failed:", m.pushes.lastErr)
	}
	if len(m.pushes.latMs) == 0 || len(m.calWallMs) == 0 {
		return nil, fmt.Errorf("no push completed in the window: %v", m.pushes.lastErr)
	}
	return m, nil
}

// counterPerPush is the growth of cadd counter name over the window
// per completed push.
func (m *measurement) counterPerPush(name string) float64 {
	return (sumSeries(m.after, name) - sumSeries(m.before, name)) / float64(len(m.pushes.latMs))
}

// wallScale is the factor the window's wall-clock times are divided by
// (see calib.go).
func (m *measurement) wallScale() float64 { return hostScale(mean(m.calWallMs)) }

// figures are what the window measured: the end-to-end metrics under
// their names in endToEndMetrics (times scaled towards the reference
// host, see calib.go), the same times unscaled under raw.* names, and the client
// mean latency, /report latency, VmHWM peak and mean calibration
// slice under their per-layer names.
func (m *measurement) figures() map[string]float64 {
	lat := m.pushes.latMs
	pushes := float64(len(lat))
	refLat := localScaled(lat, m.calWallMs)
	rate := pushes / (m.elapsed - m.pushes.calib).Seconds()
	cpu := float64(m.cpuTicks) * 1000 / clockTicksPerSecond / pushes
	return map[string]float64{
		"ref_pushes_per_s":           rate * m.wallScale(),
		"ref_push_p50_ms":            quantile(refLat, 0.5),
		"ref_push_p90_ms":            quantile(refLat, 0.9),
		"ref_server_cpu_ms_per_push": cpu / hostScale(mean(m.calCPUMs)),
		"raw.pushes_per_s":           rate,
		"raw.push_p50_ms":            quantile(lat, 0.5),
		"raw.push_p90_ms":            quantile(lat, 0.9),
		"raw.server_cpu_ms_per_push": cpu,
		"wire_bytes_per_push":        float64(m.pushBytes) / pushes,
		"pcg_iters_per_push":         m.counterPerPush("cadd_pcg_iterations_total"),
		"server_rss_p50_mb":          quantile(m.rssMB, 0.5),
		"host.calib_slice_ms":        mean(m.calWallMs),
		"service.client_push_ms":     mean(lat),
		"service.report_p50_ms":      quantile(m.reads.latMs, 0.5),
		"service.server_peak_rss_mb": float64(m.peakRSS) / (1 << 20),
	}
}
