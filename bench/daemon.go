package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// setupStarts is how many times a daemon workload starts hhd to measure
	// setup_s; the last start serves the workload.
	setupStarts = 9
	// rssEvery is how often the served daemon's resident set is sampled.
	rssEvery = 100 * time.Millisecond
)

// buildHHD builds cmd/hhd from the repository root into .bench_build,
// once per invocation and before any timing.
func (c *config) buildHHD() (string, error) {
	c.hhdOnce.Do(func() {
		out := filepath.Join(c.root, ".bench_build", "hhd")
		cmd := exec.Command("go", "build", "-o", out, "./cmd/hhd")
		cmd.Dir = c.root
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			c.hhdErr = fmt.Errorf("building cmd/hhd: %w", err)
			return
		}
		c.hhd = out
	})
	return c.hhd, c.hhdErr
}

// daemon is one running hhd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	logs   *tailBuffer
	tmp    string // scratch directory removed on stop
}

// startDaemon execs hhd on a free loopback port and waits for the first
// /readyz 200 from this child. It returns the time from exec to ready.
// A child that exits first fails the start, so a stale daemon still
// holding some port can never be mistaken for ours.
func startDaemon(c *config, args []string, withTmp bool) (*daemon, time.Duration, error) {
	bin, err := c.buildHHD()
	if err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		exited: make(chan struct{}),
		logs:   &tailBuffer{max: 16 << 10},
	}
	if withTmp {
		dir := filepath.Join(c.root, ".bench_build", "tmp")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		if d.tmp, err = os.MkdirTemp(dir, "hhd-"); err != nil {
			return nil, 0, err
		}
		args = append(args, "-checkpoint-dir", d.tmp)
	}
	args = append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-log-level", "warn"}, args...)
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.logs
	d.cmd.Stderr = d.logs
	// If the benchmark dies first, the kernel kills the daemon with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		d.removeTmp()
		return nil, 0, fmt.Errorf("starting hhd: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			d.removeTmp()
			return nil, 0, fmt.Errorf("hhd exited before ready: %s", d.logs)
		default:
		}
		if resp, err := probe.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				select {
				case <-d.exited: // answered, then died: not a usable daemon
				default:
					return d, time.Since(t0), nil
				}
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("hhd not ready after 30s: %s", d.logs)
		}
		time.Sleep(500 * time.Microsecond) // a small share of the 10–20 ms start, so the poll adds little to setup_s
	}
}

// startTimed starts hhd setupStarts times, stopping all but the last
// start, and returns the last daemon with the median time to ready.
func startTimed(c *config, args []string, withTmp bool) (*daemon, float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		d, dt, err := startDaemon(c, args, withTmp)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, dt.Seconds())
		if i == setupStarts-1 {
			return d, median(setups), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// stop sends SIGTERM, waits for the child to exit (SIGKILL after 30 s),
// and removes its scratch directory. Calling it again returns the same
// verdict.
func (d *daemon) stop() error {
	defer d.removeTmp()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signalling hhd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("hhd ignored SIGTERM for 30s: %s", d.logs)
	}
	st := d.cmd.ProcessState
	// hhd answers /readyz before it installs its signal handler, so a stop
	// right after the start can find SIGTERM's default action still in place.
	if ws, ok := st.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return nil
	}
	if !st.Success() {
		return fmt.Errorf("hhd exited with %v: %s", st, d.logs)
	}
	return nil
}

func (d *daemon) removeTmp() {
	if d.tmp != "" {
		os.RemoveAll(d.tmp)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// sampleRSS reads the daemon's resident set now and every rssEvery until
// the returned function is called or the daemon exits; the function
// returns the mean in MiB. The mean over the run repeats more closely than
// the peak (VmHWM), which moves with where the daemon's garbage
// collections fall.
func (d *daemon) sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	out := make(chan float64, 1)
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		sum, n := procStatusMiB(d.pid(), "VmRSS"), 1
		for {
			select {
			case <-done:
				out <- sum / float64(n)
				return
			case <-d.exited:
				out <- sum / float64(n)
				return
			case <-tick.C:
				sum += procStatusMiB(d.pid(), "VmRSS")
				n++
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-out
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tailBuffer keeps the last max bytes written to it: the child's log,
// quoted when it fails.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// scrape reads hhd's Prometheus exposition into series → value, keyed
// by the series text as printed, e.g. `hhd_pool{field="revives_total"}`.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// stage returns the count and mean seconds of one hhd_stage_duration_seconds
// histogram.
func stage(series map[string]float64, name string) (count, meanS float64) {
	key := `{stage="` + name + `"}`
	count = series["hhd_stage_duration_seconds_count"+key]
	if count > 0 {
		meanS = series["hhd_stage_duration_seconds_sum"+key] / count
	}
	return count, meanS
}

// setStages reports the hhd stage histograms shared by both daemon
// workloads; items is the number of items the daemon acknowledged.
func setStages(r *run, series map[string]float64, items float64) {
	n, avg := stage(series, "ingest_decode")
	r.set("hhd.ingest_decode.mean_us", avg*1e6)
	if items > 0 {
		r.set("hhd.ingest_decode.ns_per_item", n*avg*1e9/items)
	}
	n, avg = stage(series, "enqueue_wait")
	r.set("hhd.enqueue_wait.sum_s", n*avg)
	n, avg = stage(series, "batch_apply")
	r.set("hhd.batch_apply.sum_s", n*avg)
	_, avg = stage(series, "report")
	r.set("hhd.report.mean_ms", avg*1e3)
	_, avg = stage(series, "checkpoint_encode")
	r.set("hhd.checkpoint_encode.mean_ms", avg*1e3)
	r.set("hhd.checkpoint.count", series["hhd_checkpoint_total"])
	r.set("hhd.checkpoint.last_bytes", series["hhd_checkpoint_last_bytes"])
	r.set("hhd.ingest_shed_total", series["hhd_ingest_shed_total"])
}

// procStatusMiB returns one "Name:   value kB" field of /proc/<pid>/status
// in MiB.
func procStatusMiB(pid int, field string) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// procCPU is a process's user plus system CPU time from /proc/<pid>/stat,
// at the kernel's USER_HZ of 100 ticks per second.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name start at field 3.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// getJSON fetches url into v, returning the round-trip time.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return d, json.Unmarshal(body, v)
}
