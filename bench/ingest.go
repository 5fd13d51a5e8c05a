package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	l1hh "repro"
	"repro/pkg/hhclient"
)

// daemon-ingest shape.
const (
	// ingestRate is phase A's open-loop rate in items/s, about a fifth of
	// what the closed loop reaches on a 2-vCPU machine, so that the open
	// loop stays well below capacity while other load on the machine halves
	// its speed; at 1.0 M/s such stretches queued the acks, and at 2.0 M/s
	// the client queue filled.
	ingestRate  = 0.5e6
	ingestChunk = 4096 // items per open-loop AddBatch, the client's batch size
	// ingestOpenShare is phase A's share of the budget: 10 s, and so 100
	// reports, at a 20 s budget. Phase B sends a fixed item count sized to
	// take about the rest on a 2-vCPU machine, where the closed loop ran at
	// 2.0–2.6 M items/s, and no more than twice the rest where other load
	// halved that.
	ingestOpenShare  = 0.5
	ingestClosedRate = 2.0e6
)

// hhdReport is the subset of hhd's GET /report body the benchmark reads.
type hhdReport struct {
	Len          uint64     `json:"len"`
	ModelBits    int64      `json:"model_bits"`
	HeavyHitters []estimate `json:"heavy_hitters"`
}

// ackLog is the ingest connection's RoundTripper, passed to hhclient with
// WithHTTPClient. It times every POST and, for each 2xx, records when it
// returned and how many items all 2xx answers so far acknowledged, which
// is how an open-loop chunk's ack time is found.
type ackLog struct {
	base http.RoundTripper
	tr   *tracer

	mu     sync.Mutex
	cum    uint64
	at     []time.Time
	cums   []uint64
	postMs []float64
	errs   []string
}

func (a *ackLog) RoundTrip(req *http.Request) (*http.Response, error) {
	n := uint64(max(req.ContentLength, 0) / 8)
	t0 := time.Now()
	resp, err := a.base.RoundTrip(req)
	t1 := time.Now()
	a.tr.add(a.tr.newID(), 0, 0, "hhclient.post", t0, t1)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.postMs = append(a.postMs, ms(t1.Sub(t0)))
	switch {
	case err != nil:
		a.errs = append(a.errs, err.Error())
	case resp.StatusCode/100 != 2:
		a.errs = append(a.errs, resp.Status)
	default:
		a.cum += n
		a.at = append(a.at, t1)
		a.cums = append(a.cums, a.cum)
	}
	return resp, err
}

// ackedAt returns when the first 2xx covering the first end items returned.
func (a *ackLog) ackedAt(end uint64) (time.Time, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := sort.Search(len(a.cums), func(i int) bool { return a.cums[i] >= end })
	if i == len(a.cums) {
		return time.Time{}, false
	}
	return a.at[i], true
}

// loopbackClient is a client with one connection of its own, so ingest
// and reports never share a socket.
func loopbackClient(rt func(http.RoundTripper) http.RoundTripper) *http.Client {
	var t http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	if rt != nil {
		t = rt(t)
	}
	return &http.Client{Transport: t, Timeout: time.Minute}
}

// startReporter GETs url() on hc once in every reportEvery, at jittered
// arrivals, until the returned function is called; that function waits
// for the reporter to exit and returns the round-trip times in ms. url may
// return "" to skip an arrival. stream tells apart the reporters of a run.
func startReporter(r *run, hc *http.Client, stream uint64, url func() string) (stop func() []float64) {
	done := make(chan struct{})
	out := make(chan []float64, 1)
	at := newArrivals(time.Now(), reportEvery, stream)
	go func() { out <- reportLoop(r, hc, at, url, done) }()
	return func() []float64 {
		close(done)
		return <-out
	}
}

func reportLoop(r *run, hc *http.Client, at *arrivals, url func() string, stop <-chan struct{}) []float64 {
	var lat []float64
	for {
		wait := time.NewTimer(time.Until(at.due()))
		select {
		case <-stop:
			wait.Stop()
			return lat
		case <-wait.C:
		}
		u := url()
		if u == "" {
			continue
		}
		var rep hhdReport
		t0 := time.Now()
		d, err := getJSON(context.Background(), hc, u, &rep)
		r.tr.add(r.tr.newID(), 0, 0, "hhd.report_get", t0, t0.Add(d))
		r.op(err)
		if err == nil {
			lat = append(lat, ms(d))
		}
	}
}

// runDaemonIngest drives one hhd through hhclient: phase A offers a fixed
// open-loop rate and times each chunk from its due time to the 2xx that
// acknowledged its last item; phase B sends a fixed item count as fast as
// the client queue accepts it. A second connection reads /report
// throughout.
func runDaemonIngest(r *run) error {
	chunk := uint64(ingestChunk)
	chunksA := uint64(ingestRate * r.seconds * ingestOpenShare / float64(chunk))
	itemsA := chunksA * chunk
	itemsB := uint64(ingestClosedRate*r.seconds*(1-ingestOpenShare)) / chunk * chunk
	total := itemsA + itemsB
	args := []string{"-shards", "2", "-eps", "0.01", "-phi", "0.05",
		"-m", strconv.FormatUint(total, 10), "-universe", strconv.Itoa(1 << itemBits),
		"-seed", strconv.Itoa(engineSeed), "-checkpoint-every", "1s"}
	d, setup, err := startTimed(r.cfg, args, true)
	if err != nil {
		return err
	}
	defer d.stop()
	r.set("setup_s", setup)
	cpu0, hhdCPU0 := cpuTime(), procCPU(d.pid())
	rss := d.sampleRSS()

	acks := &ackLog{tr: r.tr}
	client, err := hhclient.New(d.base, hhclient.WithHTTPClient(loopbackClient(func(t http.RoundTripper) http.RoundTripper {
		acks.base = t
		return acks
	})))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	defer client.Close(ctx)

	// The reporter runs throughout; the report metrics are taken under
	// the open loop, since in the closed loop the client and hhd saturate
	// both CPUs and a report waits on the scheduler.
	reports, reportURL := loopbackClient(nil), func() string { return d.base + "/report" }
	stopReports := startReporter(r, reports, 2, reportURL)

	var (
		addBusy  time.Duration
		refusals int
		lagMs    []float64
		dues     = make([]time.Time, 0, chunksA)
	)
	add := func(items []uint64, openLoop bool, req int64) {
		id := r.tr.newID()
		t0 := time.Now()
		n, err := client.AddBatch(items)
		addBusy += time.Since(t0)
		r.tr.add(id, 0, req, "hhclient.add_batch", t0, time.Now())
		r.attempted.Add(1)
		for n < len(items) {
			if !errors.Is(err, hhclient.ErrQueueFull) {
				r.fail("AddBatch: %v", err)
				return
			}
			refusals++
			if openLoop {
				r.fail("open-loop chunk %d refused by a full client queue", req)
				openLoop = false // one failure per chunk; the rest still goes, so truth holds
			}
			time.Sleep(100 * time.Microsecond)
			t0 := time.Now()
			var k int
			k, err = client.AddBatch(items[n:])
			addBusy += time.Since(t0)
			n += k
		}
	}

	// Phase A: open loop.
	arrive := newArrivals(time.Now(), time.Duration(float64(chunk)/ingestRate*float64(time.Second)), 1)
	off := uint64(0)
	for i := uint64(0); i < chunksA; i++ {
		due := arrive.due()
		sleepUntil(due)
		lagMs = append(lagMs, ms(time.Since(due)))
		dues = append(dues, due)
		add(r.in.at(off, int(chunk)), true, int64(i+1))
		off += chunk
	}
	if err := client.Flush(ctx); err != nil {
		return fmt.Errorf("hhclient.Flush: %w", err)
	}
	reportMs := stopReports()
	stopReports = startReporter(r, reports, 3, reportURL)
	var ackMs []float64
	for i, due := range dues {
		if at, ok := acks.ackedAt(uint64(i+1) * chunk); ok {
			ackMs = append(ackMs, ms(at.Sub(due)))
		} else {
			r.fail("open-loop chunk %d never acknowledged", i+1)
		}
	}

	// Phase B: closed loop.
	b0 := time.Now()
	for ; off < total; off += chunk {
		add(r.in.at(off, int(chunk)), false, 0)
	}
	if err := client.Flush(ctx); err != nil {
		return fmt.Errorf("hhclient.Flush: %w", err)
	}
	phaseB := time.Since(b0)
	stopReports()

	// Final answer against exact truth, then the same state through the
	// checkpoint codec.
	var rep hhdReport
	hc := loopbackClient(nil)
	if _, err := getJSON(ctx, hc, d.base+"/report", &rep); err != nil {
		return err
	}
	if rep.Len != total {
		r.fail("/report len=%d after %d acknowledged items", rep.Len, total)
	}
	r.check("/report", rep.HeavyHitters, r.in.rangeCounts(0, total),
		guarantee{eps: 0.01, phi: 0.05, n: rep.Len, m: total})
	if err := checkpointTwin(r, hc, d.base+"/checkpoint", rep.HeavyHitters); err != nil {
		return err
	}

	series, err := scrape(d.base)
	if err != nil {
		return err
	}
	st := client.Stats()
	acks.mu.Lock()
	for _, e := range acks.errs {
		r.fail("ingest POST: %s", e)
	}
	postMs := acks.postMs
	acks.mu.Unlock()

	r.set("items_per_s", float64(itemsB)/phaseB.Seconds())
	r.set("ingest_ms_mean", mean(ackMs))
	r.set("report_ms_mean", mean(reportMs))
	r.set("ack_ms_p50", percentile(ackMs, 0.5))
	r.set("ack_ms_p99", percentile(ackMs, 0.99))
	r.set("report_ms_p50", percentile(reportMs, 0.5))
	r.set("report_ms_p90", percentile(reportMs, 0.9))
	r.set("model_bits", float64(rep.ModelBits))
	r.set("memory_mib", rss())
	r.set("hhd.rss_peak_mib", procStatusMiB(d.pid(), "VmHWM"))
	r.set("hhclient.add_batch.busy_s", addBusy.Seconds())
	r.set("hhclient.add_batch.refusals", float64(refusals))
	r.set("hhclient.post.count", float64(len(postMs)))
	r.set("hhclient.post.items_mean", float64(total)/float64(len(postMs)))
	r.set("hhclient.post.ms_p50", percentile(postMs, 0.5))
	r.set("hhclient.post.ms_p99", percentile(postMs, 0.99))
	r.set("hhclient.retried_items", float64(st.RetriedItems))
	r.set("hhclient.dropped", float64(st.Dropped))
	r.set("hhd.cpu_ns_per_item", float64(procCPU(d.pid())-hhdCPU0)/float64(total))
	r.set("bench.cpu_ns_per_item", float64(cpuTime()-cpu0)/float64(total))
	r.set("bench.gen_lag_ms_p99", percentile(lagMs, 0.99))
	setStages(r, series, float64(total))
	if st.RetriedItems > 0 || st.Dropped > 0 {
		r.fail("hhclient retried %d and dropped %d items", st.RetriedItems, st.Dropped)
	}
	return d.stop() // a daemon that fails its own shutdown fails the run
}

// checkpointTwin POSTs url, restores the blob with l1hh.Unmarshal and
// requires the restored engine to report what the daemon reported.
func checkpointTwin(r *run, hc *http.Client, url string, want []estimate) error {
	t0 := time.Now()
	resp, err := hc.Post(url, "application/octet-stream", nil)
	if err != nil {
		return err
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(blob))
	}
	twin, err := l1hh.Unmarshal(blob)
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("Unmarshal of %s: %w", url, err)
	}
	defer twin.Close()
	r.tr.add(r.tr.newID(), 0, 0, "l1hh.checkpoint_encode", t0, t1)
	r.tr.add(r.tr.newID(), 0, 0, "l1hh.checkpoint_decode", t1, t2)
	r.set("l1hh.checkpoint_encode.ms", ms(t1.Sub(t0)))
	r.set("l1hh.checkpoint_encode.bytes", float64(len(blob)))
	r.set("l1hh.checkpoint_decode.ms", ms(t2.Sub(t1)))
	r.attempted.Add(1)
	if !sameReport(fromL1hh(twin.Report()), want) {
		r.fail("Unmarshal(%s) reports differently from the daemon", url)
	}
	return nil
}
