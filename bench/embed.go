package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	l1hh "repro"
)

// embedSpec is one in-process workload: fresh engines built by l1hh.New,
// each fed passItems items by one producer in InsertBatch chunks while
// one reader calls Report every reportEvery.
type embedSpec struct {
	eps, phi, delta float64
	// passItems is the stream length of one fresh-engine pass;
	// the engine declares it as m unless it is windowed.
	passItems uint64
	// window and buckets configure a count window (0: whole stream).
	window  uint64
	buckets int
}

const (
	serialItems = 1 << 24
	embedShards = 2
	embedChunk  = 8192
	reportEvery = 100 * time.Millisecond
)

func runEmbedSampled(r *run) error {
	return runEmbed(r, embedSpec{eps: 0.002, phi: 0.02, delta: 0.1, passItems: 1 << 21})
}

func runEmbedSkip(r *run) error {
	return runEmbed(r, embedSpec{eps: 0.01, phi: 0.05, delta: 0.1, passItems: 1 << 28})
}

func runEmbedWindow(r *run) error {
	return runEmbed(r, embedSpec{eps: 0.01, phi: 0.05, delta: 0.1, passItems: 1 << 22, window: 1 << 20, buckets: 16})
}

// options builds the engine's option set: sharded with the tracer's
// shard hooks, or the serial reference engine.
func (s embedSpec) options(r *run, sharded bool) []l1hh.Option {
	opts := []l1hh.Option{
		l1hh.WithEps(s.eps), l1hh.WithPhi(s.phi), l1hh.WithDelta(s.delta),
		l1hh.WithSeed(engineSeed), l1hh.WithUniverse(1 << itemBits),
	}
	if s.window > 0 {
		opts = append(opts, l1hh.WithCountWindow(s.window, s.buckets))
	} else {
		opts = append(opts, l1hh.WithStreamLength(s.passItems))
	}
	if sharded {
		opts = append(opts, l1hh.WithShards(embedShards))
		if r.tr != nil {
			opts = append(opts, l1hh.WithIngestObserver(l1hh.IngestTimings{
				EnqueueWait: r.tr.hook("shard.enqueue_wait", true),
				BatchApply:  r.tr.hook("shard.batch_apply", false),
			}))
		}
	}
	return opts
}

// runEmbed runs fresh-engine passes until the budget is spent. Per-engine
// throughput is not stable from one engine to the next, so throughput is
// total items over total pass time across every pass, and the pass-to-pass
// spread is reported on its own (bench.pass_iqr_ratio).
func runEmbed(r *run, s embedSpec) error {
	pass := s.passItems
	opts := s.options(r, true)
	r.yard = newYardstick(r.in)
	var (
		setups, passNs, batchMs, flushMs, reportMs []float64
		reportItems                                int
		totalTime                                  time.Duration
		last                                       l1hh.HeavyHitters
	)
	truth := map[uint64][]uint64{} // exact counts of the last n items, by n
	truthOf := func(n uint64) []uint64 {
		if truth[n] == nil {
			truth[n] = r.in.rangeCounts(pass-n, pass)
		}
		return truth[n]
	}
	var recall []uint64
	if s.window > 0 {
		recall = truthOf(s.window)
	}
	cpu0 := cpuTime()
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for p := 0; p == 0 || time.Now().Before(deadline) && (r.cfg.maxPasses == 0 || p < r.cfg.maxPasses); p++ {
		r.yard.samples(yardPerPass)
		t0 := time.Now()
		eng, err := l1hh.New(opts...)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("l1hh.New: %w", err)
		}
		r.tr.add(r.tr.newID(), 0, int64(p+1), "l1hh.new", t0, time.Now())
		if last != nil {
			last.Close()
		}
		last = eng

		stop := make(chan struct{})
		var wg sync.WaitGroup
		var lat []float64
		var items int
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat, items = readReports(r, eng, stop)
		}()
		start := time.Now()
		for off := uint64(0); off < pass; off += embedChunk {
			id := r.tr.newID()
			r.tr.enter(id, "l1hh.insert_batch")
			b0 := time.Now()
			err := eng.InsertBatch(r.in.at(off, embedChunk))
			b1 := time.Now()
			r.tr.leave(id)
			r.tr.add(id, 0, int64(p+1), "l1hh.insert_batch", b0, b1)
			r.op(err)
			batchMs = append(batchMs, ms(b1.Sub(b0)))
		}
		f0 := time.Now()
		eng.(l1hh.Flusher).Flush()
		end := time.Now()
		r.tr.add(r.tr.newID(), 0, int64(p+1), "l1hh.flush", f0, end)
		close(stop)
		wg.Wait()
		reportMs = append(reportMs, lat...)
		reportItems += items
		flushMs = append(flushMs, ms(end.Sub(f0)))
		passNs = append(passNs, float64(end.Sub(start))/float64(pass))
		totalTime += end.Sub(start)

		n := eng.Len()
		g := guarantee{eps: s.eps, phi: s.phi, n: n, m: pass, recall: recall}
		if s.window > 0 {
			g.m = n
			g.recallN = s.window
		} else if n != pass {
			r.fail("pass %d: Len()=%d after %d items", p, n, pass)
			continue
		}
		r.check(fmt.Sprintf("pass %d", p), fromL1hh(eng.Report()), truthOf(n), g)
	}
	passes := len(passNs)
	cpu := cpuTime() - cpu0
	st := last.Stats()
	if err := roundTrip(r, last); err != nil {
		last.Close()
		return err
	}
	r.set("memory_mib", engineHeapMiB(&last))

	r.set("setup_s", median(setups))
	r.set("items_per_s", float64(pass)*float64(passes)/totalTime.Seconds())
	r.set("ingest_ms_mean", mean(batchMs))
	r.set("report_ms_mean", mean(reportMs))
	r.set("batch_ms_p50", percentile(batchMs, 0.5))
	r.set("batch_ms_p99", percentile(batchMs, 0.99))
	r.set("report_ms_p50", percentile(reportMs, 0.5))
	r.set("report_ms_p90", percentile(reportMs, 0.9))
	r.set("model_bits", float64(st.ModelBits))
	r.set("l1hh.insert_batch.calls", float64(len(batchMs)))
	r.set("l1hh.flush.ms_p50", median(flushMs))
	r.set("l1hh.report.calls", float64(len(reportMs)))
	if len(reportMs) > 0 {
		r.set("l1hh.report.items_mean", float64(reportItems)/float64(len(reportMs)))
	}
	r.set("bench.pass_iqr_ratio", iqrRatio(passNs))
	r.set("bench.cpu_ns_per_item", float64(cpu)/(float64(pass)*float64(passes)))
	if ws := st.Window; ws != nil {
		r.set("window.buckets", float64(ws.Buckets))
		r.set("window.covered_items", float64(ws.Covered))
		r.set("window.share_skew", ws.ShareSkew)
	}
	if r.tr != nil {
		ib := r.tr.layer("l1hh.insert_batch")
		r.set("l1hh.insert_batch.busy_s", ib.SumS)
		r.set("l1hh.insert_batch.self_s", ib.SelfS)
		ba := r.tr.layer("shard.batch_apply")
		r.set("shard.batch_apply.sum_s", ba.SumS)
		r.set("shard.batch_apply.p50_us", ba.P50us)
		r.set("shard.busy_ratio", ba.SumS/(embedShards*totalTime.Seconds()))
		ew := r.tr.layer("shard.enqueue_wait")
		r.set("shard.enqueue_wait.sum_s", ew.SumS)
		r.set("shard.enqueue_wait.p99_us", ew.P99us)
		if ew.Count > 0 {
			r.set("shard.enqueue_wait.nonzero_ratio", float64(ew.Nonzero)/float64(ew.Count))
		}
		return serialPass(r, s)
	}
	return nil
}

// engineHeapMiB closes *eng and returns the live heap it held: the heap
// after a collection with the engine reachable, less the heap after one
// without it.
func engineHeapMiB(eng *l1hh.HeavyHitters) float64 {
	var before, after runtime.MemStats
	// Two collections each: the first moves pooled buffers to sync.Pool's
	// victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	(*eng).Close()
	*eng = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return (float64(before.HeapAlloc) - float64(after.HeapAlloc)) / (1 << 20)
}

// readReports calls Report every reportEvery until stop closes, returning
// the latencies in ms and the number of items the reports listed.
func readReports(r *run, eng l1hh.HeavyHitters, stop <-chan struct{}) (lat []float64, items int) {
	tick := time.NewTicker(reportEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return lat, items
		case <-tick.C:
		}
		t0 := time.Now()
		rep := eng.Report()
		t1 := time.Now()
		r.tr.add(r.tr.newID(), 0, 0, "l1hh.report", t0, t1)
		r.op(nil)
		lat = append(lat, ms(t1.Sub(t0)))
		items += len(rep)
	}
}

// roundTrip checkpoints the final engine, restores it through l1hh.Unmarshal
// and requires the restored engine to report identically.
func roundTrip(r *run, eng l1hh.HeavyHitters) error {
	t0 := time.Now()
	blob, err := eng.MarshalBinary()
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("MarshalBinary: %w", err)
	}
	twin, err := l1hh.Unmarshal(blob)
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("Unmarshal: %w", err)
	}
	defer twin.Close()
	r.tr.add(r.tr.newID(), 0, 0, "l1hh.checkpoint_encode", t0, t1)
	r.tr.add(r.tr.newID(), 0, 0, "l1hh.checkpoint_decode", t1, t2)
	r.set("l1hh.checkpoint_encode.ms", ms(t1.Sub(t0)))
	r.set("l1hh.checkpoint_encode.bytes", float64(len(blob)))
	r.set("l1hh.checkpoint_decode.ms", ms(t2.Sub(t1)))
	r.attempted.Add(1)
	if !sameReport(fromL1hh(eng.Report()), fromL1hh(twin.Report())) {
		r.fail("Unmarshal(MarshalBinary()) reports differently from the engine")
	}
	return nil
}

// serialPass times a single-goroutine pass of the same stream through
// the serial engine: the cost of Algorithm 2 and its sampler without the
// shard hand-off. The pass stops after serialItems: the per-item cost of a
// longer pass at a fixed sample rate is the same.
func serialPass(r *run, s embedSpec) error {
	pass := min(s.passItems, serialItems)
	eng, err := l1hh.New(s.options(r, false)...)
	if err != nil {
		return fmt.Errorf("serial l1hh.New: %w", err)
	}
	defer eng.Close()
	t0 := time.Now()
	for off := uint64(0); off < pass; off += embedChunk {
		r.op(eng.InsertBatch(r.in.at(off, embedChunk)))
	}
	d := time.Since(t0)
	r.tr.add(r.tr.newID(), 0, 0, "core.serial_pass", t0, t0.Add(d))
	r.set("core.serial_ns_per_item", float64(d)/float64(pass))
	return nil
}

func fromL1hh(rep []l1hh.ItemEstimate) []estimate {
	out := make([]estimate, len(rep))
	for i, e := range rep {
		out[i] = estimate{Item: e.Item, Estimate: e.F}
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
