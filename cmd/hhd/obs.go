package main

// obs.go — the daemon's metrics: one per-server obs.Registry holding
// every hhd_* family, each registered once in newServerObs. GET
// /metrics renders it as JSON, and ?format=prometheus as text
// exposition format v0.0.4; both views read the same series under the
// same names. The registry is per-server so tests that build several
// servers do not collide.

import (
	"fmt"
	"net/http"
	"time"

	l1hh "repro"
	"repro/internal/obs"
)

// stage names for hhd_stage_duration_seconds, one per pipeline stage
// the daemon times. DESIGN.md §10 documents what each covers.
const (
	stageIngestDecode = "ingest_decode" // request decode + engine enqueue, whole body
	stageEnqueueWait  = "enqueue_wait"  // producer blocked on a full shard queue
	stageBatchApply   = "batch_apply"   // shard worker applying one batch
	stageReport       = "report"        // report barrier + merge + sort
	stageMerge        = "merge"         // folding one peer checkpoint (or one pull cycle)
	stageCkptEncode   = "checkpoint_encode"
	stageCkptDecode   = "checkpoint_decode"
	stagePoolSpill    = "pool_spill"  // evicting one tenant: encode + durable store write
	stagePoolRevive   = "pool_revive" // reviving one tenant: store read + decode + restore
)

// serverObs is one server's Prometheus registry plus the histogram
// handles the hot paths observe into.
type serverObs struct {
	reg *obs.Registry

	ingestDecode *obs.Histogram
	enqueueWait  *obs.Histogram
	batchApply   *obs.Histogram
	report       *obs.Histogram
	merge        *obs.Histogram
	ckptEncode   *obs.Histogram
	ckptDecode   *obs.Histogram
	poolSpill    *obs.Histogram
	poolRevive   *obs.Histogram

	observedEps *obs.Histogram

	// Event counts and last-value gauges the handlers, the aggregator
	// loop and the checkpoint coordinator write directly.
	shed          *obs.Counter
	votes         *obs.Counter
	ckpt          *obs.Counter
	ckptErrors    *obs.Counter
	ckptLastBytes *obs.Gauge
	ckptLastSeq   *obs.Gauge
	merges        *obs.Counter
	mergeErrors   *obs.Counter
	mergeLatency  *obs.Gauge
}

// newServerObs builds the registry for s with the families every server
// exposes; registerEngine adds the default engine's.
func newServerObs(s *server) *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{reg: reg}

	stage := func(name string) *obs.Histogram {
		return reg.Histogram("hhd_stage_duration_seconds",
			"Latency of one pipeline stage, labeled by stage.",
			obs.L("stage", name), obs.DurationBuckets)
	}
	o.ingestDecode = stage(stageIngestDecode)
	o.enqueueWait = stage(stageEnqueueWait)
	o.batchApply = stage(stageBatchApply)
	o.report = stage(stageReport)
	o.merge = stage(stageMerge)
	o.ckptEncode = stage(stageCkptEncode)
	o.ckptDecode = stage(stageCkptDecode)
	o.poolSpill = stage(stagePoolSpill)
	o.poolRevive = stage(stagePoolRevive)

	o.observedEps = reg.Histogram("hhd_sentinel_observed_eps",
		"Accuracy sentinel: observed per-report worst error fraction (with -sentinel).",
		nil, obs.EpsBuckets)

	reg.GaugeFunc("hhd_uptime_seconds", "Seconds since the server started.",
		nil, func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("hhd_peers", "Configured aggregator peers (0 on workers).",
		nil, func() float64 { return float64(len(s.peers)) })
	reg.GaugeFunc("hhd_ready", "1 when /readyz answers 200, else 0.",
		nil, func() float64 { return bit(s.isReady()) })
	o.shed = reg.Counter("hhd_ingest_shed_total", "Ingest requests shed with 429 on saturated shard queues (with -shed-wait).", nil)
	o.votes = reg.Counter("hhd_votes_total", "Ballots accepted by /vote and /t/{tenant}/vote (with -problem borda|maximin).", nil)
	o.ckpt = reg.Counter("hhd_checkpoint_total", "Snapshots the checkpoint coordinator stored (with -checkpoint-dir).", nil)
	o.ckptErrors = reg.Counter("hhd_checkpoint_errors_total", "Snapshot encodes or stores that failed.", nil)
	o.ckptLastBytes = reg.Gauge("hhd_checkpoint_last_bytes", "Size of the last stored snapshot.", nil)
	o.ckptLastSeq = reg.Gauge("hhd_checkpoint_last_seq", "Sequence number of the last stored snapshot.", nil)
	reg.GaugeFunc("hhd_checkpoint_age_seconds", "Age of the last stored snapshot; -1 = never.",
		nil, func() float64 {
			if last := s.ckptLastUnix.Load(); last > 0 {
				return time.Since(time.Unix(0, last)).Seconds()
			}
			return -1
		})
	o.merges = reg.Counter("hhd_merges_total", "Successful checkpoint merges.", nil)
	o.mergeErrors = reg.Counter("hhd_merge_errors_total", "Failed checkpoint merges or pulls.", nil)
	o.mergeLatency = reg.Gauge("hhd_merge_latency_seconds", "Wall time of the last successful merge.", nil)
	reg.GaugeFunc("hhd_merge_staleness_seconds", "Age of the last successful merge; -1 = never.",
		nil, func() float64 {
			if last := s.mergeLastUnix.Load(); last > 0 {
				return time.Since(time.Unix(0, last)).Seconds()
			}
			return -1
		})

	// The multi-tenant pool's occupancy (with -tenants): nil without a
	// pool omits the family, headers included. pool.Stats is cheap (a
	// mutex, no engine barrier), so it needs no statsTTL cache.
	reg.SeriesFunc("hhd_pool", "Multi-tenant pool occupancy, labeled by field (with -tenants).",
		obs.TypeGauge, func() []obs.Sample {
			p := s.pool
			if p == nil {
				return nil
			}
			st := p.Stats()
			return []obs.Sample{
				field("tenants_live", float64(st.TenantsLive)),
				field("tenants_spilled", float64(st.TenantsSpilled)),
				field("tenants_pinned", float64(st.TenantsPinned)),
				field("model_bits_in_use", float64(st.ModelBitsInUse)),
				field("budget_bits", float64(st.BudgetBits)),
				field("evictions_total", float64(st.Evictions)),
				field("revives_total", float64(st.Revives)),
				field("spill_errors_total", float64(st.SpillErrors)),
				field("tenants_created_total", float64(st.TenantsCreated)),
				field("spilled_bytes", float64(st.SpilledBytes)),
				field("items_total", float64(st.Items)),
			}
		})

	return o
}

// registerEngine adds the families that read the default engine
// (finish): a tenant server has no default engine, so they are absent
// there, and hhd_pool carries the pool's items_total and
// model_bits_in_use instead. Every one reads through s.scrapeStats, so
// one scrape costs at most one engine barrier (the statsTTL cache).
func (o *serverObs) registerEngine(s *server) {
	reg := o.reg
	reg.CounterFunc("hhd_items_total", "Items accepted by the engine.",
		nil, func() float64 { return float64(s.scrapeStats().Items) })
	reg.GaugeFunc("hhd_model_bits", "Sketch size under the paper's accounting.",
		nil, func() float64 { return float64(s.scrapeStats().ModelBits) })
	reg.GaugeFunc("hhd_shards", "Shard count of the live engine.",
		nil, func() float64 { return float64(s.scrapeStats().Shards) })
	reg.SeriesFunc("hhd_queue_depth", "Per-shard ingest queue occupancy in batches.",
		obs.TypeGauge, func() []obs.Sample {
			depths := s.scrapeStats().QueueDepths
			out := make([]obs.Sample, len(depths))
			for i, d := range depths {
				out[i] = obs.Sample{Labels: obs.L("shard", fmt.Sprint(i)), Value: float64(d)}
			}
			return out
		})

	// The window and sentinel families only exist when the subsystem is
	// live: SeriesFunc returning nil omits them, headers included. Each
	// is one family out of the shared Stats snapshot — separate barriers
	// per field would each pay a full all-shards round trip.
	// covered_min/covered_max/share_skew make the DESIGN.md §8 caveats
	// observable (a stuck covered_min is a stale shard, a large
	// share_skew a dominant item), and extrapolated says whether the
	// report fold corrects for them.
	reg.SeriesFunc("hhd_window", "Sliding-window coverage, labeled by field (with -window/-window-duration).",
		obs.TypeGauge, func() []obs.Sample {
			w := s.scrapeStats().Window
			if w == nil {
				return nil
			}
			return []obs.Sample{
				field("covered", float64(w.Covered)),
				field("covered_min", float64(w.CoveredMin)),
				field("covered_max", float64(w.CoveredMax)),
				field("share_skew", w.ShareSkew),
				field("extrapolated", bit(w.Extrapolated)),
				field("retired_total", float64(w.Retired)),
				field("buckets", float64(w.Buckets)),
				field("span_seconds", w.Span.Seconds()),
			}
		})
	reg.SeriesFunc("hhd_sentinel", "Accuracy sentinel audit state, labeled by field (with -sentinel).",
		obs.TypeGauge, func() []obs.Sample {
			sen := s.scrapeStats().Sentinel
			if sen == nil {
				return nil
			}
			return []obs.Sample{
				field("sample_rate", sen.SampleRate),
				field("seen_total", float64(sen.TotalSeen)),
				field("sampled_total", float64(sen.Sampled)),
				field("keys", float64(sen.Keys)),
				field("dropped_total", float64(sen.Dropped)),
				field("checks_total", float64(sen.Checks)),
				field("violations_total", float64(sen.Violations)),
				field("observed_eps", sen.ObservedEps),
				field("max_observed_eps", sen.MaxObservedEps),
				field("incoherent", bit(sen.Incoherent)),
			}
		})
	reg.CounterFunc("hhd_guarantee_violations_total",
		"Accuracy sentinel: cumulative (ε,ϕ)-guarantee violations (with -sentinel).",
		nil, func() float64 {
			if sen := s.scrapeStats().Sentinel; sen != nil {
				return float64(sen.Violations)
			}
			return 0
		})
}

// field is one series of a family labeled by field (hhd_window,
// hhd_sentinel, hhd_pool).
func field(name string, v float64) obs.Sample {
	return obs.Sample{Labels: obs.L("field", name), Value: v}
}

// bit renders a boolean as a 0/1 sample value.
func bit(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// ingestTimings are the engine-level stage hooks this registry feeds;
// installed on the engine spec so every engine the server ever builds
// (startup, restore, aggregator rebuilds) reports into the same
// histograms.
func (o *serverObs) ingestTimings() l1hh.IngestTimings {
	return l1hh.IngestTimings{
		EnqueueWait: o.enqueueWait.ObserveDuration,
		BatchApply:  o.batchApply.ObserveDuration,
	}
}

// poolTimings feeds the pool's spill and revive latencies into the
// stage-duration histograms, the same shape as ingestTimings.
func (o *serverObs) poolTimings() l1hh.PoolTimings {
	return l1hh.PoolTimings{
		Spill:  o.poolSpill.ObserveDuration,
		Revive: o.poolRevive.ObserveDuration,
	}
}

// observeSentinel records the audit result attached to a Stats snapshot
// (called after reports, where the sentinel refreshes its observed ε).
func (o *serverObs) observeSentinel(st l1hh.Stats) {
	if st.Sentinel != nil && st.Sentinel.Checks > 0 {
		o.observedEps.Observe(st.Sentinel.ObservedEps)
	}
}

// handleMetrics serves GET /metrics from the server's registry: JSON
// by default, Prometheus text exposition format with
// ?format=prometheus. A failed write means the client is gone; there is
// nothing useful left to send.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", obs.ContentType)
		s.obs.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	s.obs.reg.WriteJSON(w)
}
