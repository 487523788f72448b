package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dyngraph/internal/promtext"
)

// daemon is one cadd child process serving on loopback with its own
// journal directory.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	exited  chan struct{}
	stderr  bytes.Buffer
}

// startDaemon execs bin on a free loopback port with a fresh data
// directory under workDir, journaling with fsync off, and returns once
// it prints its listen address.
func startDaemon(bin, workDir string) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "cadd-data-")
	if err != nil {
		return nil, fmt.Errorf("cadd data dir: %w", err)
	}
	d := &daemon{dataDir: dir, exited: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-data-dir", dir,
		"-fsync", "off",
		"-log-level", "warn",
	)
	// The child must not outlive the benchmark, even when it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = &d.stderr
	addr := &addrWriter{found: make(chan string, 1)}
	d.cmd.Stdout = addr
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("exec cadd: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr.found:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		os.RemoveAll(dir)
		return nil, fmt.Errorf("cadd exited before listening: %s", d.stderr.String())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("cadd did not report a listen address within 30s")
	}
}

// addrWriter is cadd's stdout: it reports the address from the
// "cadd: listening on <addr>" line and discards everything else.
type addrWriter struct {
	line  []byte
	found chan string // buffered 1; receives the address once
	sent  bool
}

func (a *addrWriter) Write(p []byte) (int, error) {
	for _, c := range p {
		if c != '\n' {
			a.line = append(a.line, c)
			continue
		}
		if v, ok := strings.CutPrefix(string(a.line), "cadd: listening on "); ok && !a.sent {
			a.found <- v
			a.sent = true
		}
		a.line = a.line[:0]
	}
	return len(p), nil
}

// stop sends SIGTERM, waits for the process to exit (killing it after
// a grace period) and removes its data directory. Calling it again
// after the process has exited is harmless.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	os.RemoveAll(d.dataDir)
}

// cpuTicks returns the process's utime+stime in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat cpu fields")
	}
	return ut + st, nil
}

// clockTicksPerSecond is USER_HZ, 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

// peakRSSBytes returns the process's VmHWM.
func (d *daemon) peakRSSBytes() (int64, error) { return d.statusBytes("VmHWM:") }

// rssBytes returns the process's VmRSS.
func (d *daemon) rssBytes() (int64, error) { return d.statusBytes("VmRSS:") }

// statusBytes reads one kB-valued field of /proc/<pid>/status.
func (d *daemon) statusBytes(field string) (int64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad %s %q", field, v)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// get fetches path and returns the body, failing on any non-200.
func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// sumSeries adds every sample of metric name whose labels hold each
// of the want pairs (label name, value, name, value, ...).
func sumSeries(samples []promtext.Sample, name string, want ...string) float64 {
	var total float64
next:
	for _, sm := range samples {
		if sm.Name != name {
			continue
		}
		for i := 0; i+1 < len(want); i += 2 {
			if sm.Label(want[i]) != want[i+1] {
				continue next
			}
		}
		total += sm.Value
	}
	return total
}
