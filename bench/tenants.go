package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// daemon-tenants shape.
const (
	tenantCount = 256
	tenantZipfS = 1.0  // tenant popularity exponent
	postItems   = 2048 // ids per NDJSON POST
	// tenantRate is the open-loop POST rate, about a quarter of the 220
	// POSTs/s one connection sustained with the same mix and budget on a
	// 2-vCPU machine, so that the open loop stays below capacity while
	// other load on the machine halves its speed. At half the capacity such
	// stretches queued the POSTs and moved the mean ack time by 40%.
	tenantRate = 60.0
	// tenantBudgetBits caps the summed model bits of resident tenant
	// engines so that about 1/8 of the tenants fit.
	tenantBudgetBits = 4_000_000
	tenantsChecked   = 8 // hottest tenants checked, and as many seeded random ones
)

func tenantName(t int) string { return fmt.Sprintf("tenant-%03d", t) }

// post is one open-loop NDJSON request.
type post struct {
	seq    int
	tenant int
	due    time.Time
	body   []byte
}

// runDaemonTenants drives hhd's tenant pool with NDJSON POSTs at a fixed
// open-loop rate; tenants are drawn from a Zipf popularity, so the hot
// ones stay resident while the tail spills and revives. A second
// connection reads /t/{tenant}/report from the same popularity.
func runDaemonTenants(r *run) error {
	items := postItems
	nPosts := int(tenantRate * r.seconds)
	pop := zipfCDF(tenantCount, tenantZipfS)
	// -m is the hottest tenant's expected load, rounded up to a power of
	// two, so its (ε,ϕ) check is not vacuous.
	hot := float64(nPosts*items) * pop[0]
	m := uint64(1) << uint(math.Ceil(math.Log2(max(hot, 2))))
	args := []string{"-tenants", "-tenant-budget-bits", strconv.Itoa(tenantBudgetBits),
		"-eps", "0.01", "-phi", "0.05", "-m", strconv.FormatUint(m, 10),
		"-universe", strconv.Itoa(1 << itemBits), "-seed", strconv.Itoa(engineSeed)}
	d, setup, err := startTimed(r.cfg, args, false)
	if err != nil {
		return err
	}
	defer d.stop()
	r.set("setup_s", setup)
	cpu0, hhdCPU0 := cpuTime(), procCPU(d.pid())
	rss := d.sampleRSS()

	rnd := rand.New(rand.NewPCG(scheduleSeed, 1))
	pick := func(rnd *rand.Rand) int { return min(sort.SearchFloat64s(pop, rnd.Float64()), tenantCount-1) }
	checked := map[int][]uint64{} // tenant → stream offsets of its posts
	for t := 0; t < tenantsChecked; t++ {
		checked[t] = nil
	}
	for len(checked) < 2*tenantsChecked {
		checked[tenantsChecked+rnd.IntN(tenantCount-tenantsChecked)] = nil
	}

	// The generator hands each post to the sender at its due time; the
	// channel holds every post of the run, so the generator never waits
	// on a slow daemon.
	posts := make(chan post, nPosts)
	var lagMs []float64
	start := time.Now()
	arrive := newArrivals(start, time.Second/tenantRate, 3)
	go func() {
		defer close(posts)
		off := uint64(0)
		for i := 0; i < nPosts; i++ {
			due := arrive.due()
			t := pick(rnd)
			body := make([]byte, 0, items*11)
			for _, x := range r.in.at(off, items) {
				body = strconv.AppendUint(body, x, 10)
				body = append(body, '\n')
			}
			if offs, ok := checked[t]; ok {
				checked[t] = append(offs, off)
			}
			off += uint64(items)
			sleepUntil(due)
			lagMs = append(lagMs, ms(time.Since(due)))
			posts <- post{i + 1, t, due, body}
		}
	}()

	var live [tenantCount]atomic.Bool // tenants with an acknowledged POST
	rr := rand.New(rand.NewPCG(scheduleSeed, 2))
	stopReports := startReporter(r, loopbackClient(nil), 4, func() string {
		for try := 0; try < 16; try++ {
			if t := pick(rr); live[t].Load() {
				return d.base + "/t/" + tenantName(t) + "/report"
			}
		}
		return ""
	})

	hc := loopbackClient(nil)
	var (
		ackMs   []float64
		posted  int
		acked   uint64
		lastAck time.Time
	)
	for p := range posts {
		id := r.tr.newID()
		t0 := time.Now()
		status, err := postNDJSON(hc, d.base+"/t/"+tenantName(p.tenant)+"/ingest", p.body)
		t1 := time.Now()
		r.tr.add(id, 0, int64(p.seq), "hhd.tenant_post", t0, t1)
		r.op(err)
		posted++
		if err != nil {
			continue
		}
		if status/100 != 2 {
			r.fail("POST %d to %s: status %d", p.seq, tenantName(p.tenant), status)
			continue
		}
		live[p.tenant].Store(true)
		ackMs = append(ackMs, ms(t1.Sub(p.due)))
		acked += uint64(items)
		lastAck = t1
	}
	reportMs := stopReports()

	// Final answers of the checked tenants against their exact streams.
	counts := make([]uint64, zipfRanks)
	ctx := context.Background()
	for t, offs := range checked {
		if len(offs) == 0 {
			continue // never drawn: the daemon has no such tenant
		}
		var rep hhdReport
		if _, err := getJSON(ctx, hc, d.base+"/t/"+tenantName(t)+"/report", &rep); err != nil {
			r.fail("final report of %s: %v", tenantName(t), err)
			continue
		}
		clear(counts)
		for _, off := range offs {
			for _, x := range r.in.at(off, items) {
				rank, _ := rankOf(x)
				counts[rank]++
			}
		}
		n := uint64(len(offs) * items)
		if rep.Len != n {
			r.fail("%s: report len=%d after %d items", tenantName(t), rep.Len, n)
		}
		r.check(tenantName(t), rep.HeavyHitters, counts, guarantee{eps: 0.01, phi: 0.05, n: rep.Len, m: m})
	}
	// The hottest tenant's checkpoint must round-trip.
	hottest := d.base + "/t/" + tenantName(0)
	var rep hhdReport
	if _, err := getJSON(ctx, hc, hottest+"/report", &rep); err != nil {
		return err
	}
	if err := checkpointTwin(r, hc, hottest+"/checkpoint", rep.HeavyHitters); err != nil {
		return err
	}

	series, err := scrape(d.base)
	if err != nil {
		return err
	}
	pool := func(field string) float64 { return series[`hhd_pool{field="`+field+`"}`] }
	r.set("items_per_s", float64(acked)/lastAck.Sub(start).Seconds())
	r.set("ingest_ms_mean", mean(ackMs))
	r.set("report_ms_mean", mean(reportMs))
	r.set("ack_ms_p50", percentile(ackMs, 0.5))
	r.set("ack_ms_p99", percentile(ackMs, 0.99))
	r.set("report_ms_p50", percentile(reportMs, 0.5))
	r.set("report_ms_p90", percentile(reportMs, 0.9))
	r.set("model_bits", pool("model_bits_in_use"))
	r.set("memory_mib", rss())
	r.set("hhd.rss_peak_mib", procStatusMiB(d.pid(), "VmHWM"))
	r.set("hhd.cpu_ns_per_item", float64(procCPU(d.pid())-hhdCPU0)/float64(acked))
	r.set("bench.cpu_ns_per_item", float64(cpuTime()-cpu0)/float64(acked))
	r.set("bench.gen_lag_ms_p99", percentile(lagMs, 0.99))
	setStages(r, series, float64(acked))
	n, avg := stage(series, "pool_revive")
	r.set("pool.pool_revive.count", n)
	r.set("pool.pool_revive.mean_ms", avg*1e3)
	n, avg = stage(series, "pool_spill")
	r.set("pool.pool_spill.count", n)
	r.set("pool.pool_spill.mean_ms", avg*1e3)
	if touches := float64(posted + len(reportMs)); touches > 0 {
		r.set("pool.hit_ratio", 1-pool("revives_total")/touches)
	}
	r.set("pool.spilled_bytes", pool("spilled_bytes"))
	r.set("pool.tenants_live", pool("tenants_live"))
	return d.stop() // a daemon that fails its own shutdown fails the run
}

// postNDJSON POSTs one NDJSON body and returns the status once the
// answer has been read.
func postNDJSON(hc *http.Client, url string, body []byte) (int, error) {
	resp, err := hc.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// zipfCDF is the cumulative distribution of Zipf(s) over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}
