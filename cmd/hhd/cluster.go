package main

// Cluster mode: one hhd process per ingest node, plus an aggregator that
// periodically pulls every worker's /checkpoint, folds them into a fresh
// engine, and swaps it in — so the aggregator's /report is the global
// (ε,ϕ) view of the whole fleet's stream. Rebuilding from scratch each
// cycle keeps the pull idempotent: a worker's checkpoint covers its
// entire stream so far, so folding it into last cycle's state would
// double-count.
//
// Every node — workers and aggregator — must run the same problem flags
// (-eps -phi -delta -m -universe -shards -algo -seed): identical seeds
// are what make the solver states foldable (DESIGN.md §7).

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	l1hh "repro"
)

// aggregate runs the pull loop until ctx is cancelled: one pull-and-merge
// sweep immediately, then one per interval. Failures (a peer down, a
// mismatched configuration) leave the previous merged state serving and
// are retried next cycle; hhd_merge_staleness_seconds exposes how old the
// serving state is.
func (s *server) aggregate(ctx context.Context, interval time.Duration) {
	// The per-request timeout tracks the pull interval but keeps a floor:
	// a checkpoint marshal on a loaded worker takes real time, and a slow
	// cycle only delays freshness (visible in the staleness metric).
	timeout := interval
	if timeout < 10*time.Second {
		timeout = 10 * time.Second
	}
	client := &http.Client{Timeout: timeout}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		if err := s.pullAndMerge(ctx, client); err != nil {
			slog.Warn("aggregate cycle failed", "err", err)
		} else {
			// The first complete fleet view is what makes the
			// aggregator's /report meaningful; /readyz gates on it.
			s.ready.Store(true)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// pullAndMerge fetches every peer's checkpoint concurrently, folds them
// into a fresh engine, and swaps it in as the serving state. A complete
// cycle or nothing: a partial fleet view would silently under-report, so
// on any failure the previous (complete, staler) state keeps serving —
// with concurrent fetches a dead peer costs one timeout, not
// sum-of-timeouts, and the fold work only starts once every blob is in.
func (s *server) pullAndMerge(ctx context.Context, client *http.Client) error {
	start := time.Now()
	blobs := make([][]byte, len(s.peers))
	errs := make([]error, len(s.peers))
	var wg sync.WaitGroup
	for i, peer := range s.peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			blobs[i], errs[i] = fetchCheckpoint(ctx, client, peer)
		}(i, peer)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			s.obs.mergeErrors.Inc()
			return fmt.Errorf("peer %s: %w", s.peers[i], err)
		}
	}
	fresh, err := l1hh.New(s.spec.build...)
	if err != nil {
		return err
	}
	merger, ok := fresh.(l1hh.Merger)
	if !ok {
		// Unreachable: startup refuses -peers with windows and at -m 0,
		// and every known-length non-windowed sharded engine merges.
		fresh.Close()
		return fmt.Errorf("aggregator engine %T does not merge", fresh)
	}
	for i, blob := range blobs {
		if err := merger.Merge(blob); err != nil {
			s.obs.mergeErrors.Inc()
			fresh.Close()
			return fmt.Errorf("peer %s: %w", s.peers[i], err)
		}
	}
	s.swap(fresh)
	s.recordMerge(time.Since(start))
	return nil
}

// fetchCheckpoint POSTs {peer}/checkpoint and returns the blob.
func fetchCheckpoint(ctx context.Context, client *http.Client, peer string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/checkpoint", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBody+1))
	if err != nil {
		return nil, fmt.Errorf("reading checkpoint: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("checkpoint: status %d: %.200s", resp.StatusCode, body)
	}
	if len(body) > maxSnapshotBody {
		return nil, fmt.Errorf("checkpoint exceeds %d bytes", maxSnapshotBody)
	}
	return body, nil
}
