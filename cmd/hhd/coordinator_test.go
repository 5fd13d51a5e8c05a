package main

// coordinator_test.go — the async checkpoint coordinator against the
// in-memory sink: snapshot/skip/force semantics, failure accounting,
// sequence continuity across a resume, the draining-server final
// snapshot, and the ticker loop.

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	l1hh "repro"
	"repro/internal/ckpt"
)

func ingestN(t *testing.T, s *server, start, n uint64) {
	t.Helper()
	items := make([]uint64, n)
	for i := range items {
		items[i] = start + uint64(i)
	}
	w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(items))
	if w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, w.Body)
	}
}

func TestCoordinatorSnapshotSkipResume(t *testing.T) {
	s := newTestServer(t, 100000)
	sink := ckpt.NewMemSink()
	co := newCoordinator(s, sink, time.Hour, 0)

	// Nothing ingested yet: the unchanged-items skip means no snapshot.
	co.snapshot(false)
	if sink.Len() != 0 {
		t.Fatalf("snapshot of an idle engine stored %d frames, want the skip", sink.Len())
	}

	ingestN(t, s, 0, 500)
	co.snapshot(false)
	if sink.Len() != 1 || s.obs.ckpt.Value() != 1 {
		t.Fatalf("after first snapshot: %d frames, ckptTotal %d", sink.Len(), s.obs.ckpt.Value())
	}
	if uint64(s.obs.ckptLastSeq.Value()) != 1 || uint64(s.obs.ckptLastBytes.Value()) == 0 {
		t.Fatalf("checkpoint metrics: seq %d, bytes %d", uint64(s.obs.ckptLastSeq.Value()), uint64(s.obs.ckptLastBytes.Value()))
	}

	// No new items → skip; force (the shutdown path) writes anyway.
	co.snapshot(false)
	if sink.Len() != 1 {
		t.Fatal("no-op snapshot was not skipped")
	}
	co.snapshot(true)
	if sink.Len() != 2 || uint64(s.obs.ckptLastSeq.Value()) != 2 {
		t.Fatalf("forced snapshot: %d frames, last seq %d", sink.Len(), uint64(s.obs.ckptLastSeq.Value()))
	}

	// Resume: newest snapshot restores to an engine with the same count,
	// and a coordinator seeded with the loaded seq numbers onward.
	payload, seq, err := sink.LoadNewest()
	if err != nil || payload == nil {
		t.Fatalf("LoadNewest: (%d bytes, %v)", len(payload), err)
	}
	restored, err := newServerFromCheckpoint(testSpec(100000, 7), payload)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restored.engine().Close() })
	if got := restored.engine().Len(); got != 500 {
		t.Fatalf("restored engine Len = %d, want 500", got)
	}
	co2 := newCoordinator(restored, sink, time.Hour, seq)
	ingestN(t, restored, 500, 100)
	co2.snapshot(false)
	if uint64(restored.obs.ckptLastSeq.Value()) != seq+1 {
		t.Fatalf("resumed coordinator wrote seq %d, want %d", uint64(restored.obs.ckptLastSeq.Value()), seq+1)
	}
}

// TestCoordinatorPoolPinnedDisablesSkip: with a multi-tenant pool the
// unchanged-items skip must not apply while a pinned (time-window)
// tenant exists — its state retires mass by wall clock without moving
// the item counter, so an idle pool still needs fresh checkpoints.
func TestCoordinatorPoolPinnedDisablesSkip(t *testing.T) {
	s := newTestPoolServer(t)
	sink := ckpt.NewMemSink()

	// A traffic-idle pool with only spillable tenants skips.
	feedTenantHTTP(t, s, "plain", 42)
	co := newCoordinator(s, sink, time.Hour, 0)
	co.snapshot(false)
	if sink.Len() != 1 {
		t.Fatalf("first pool snapshot: %d frames, want 1", sink.Len())
	}
	co.snapshot(false)
	if sink.Len() != 1 {
		t.Fatal("idle pool without pinned tenants was not skipped")
	}

	// A time-window tenant is pinned; its presence forces every tick.
	if err := s.pool.SetTenantOptions("win",
		l1hh.WithTimeWindow(time.Hour, 4), l1hh.WithStreamLength(1000)); err != nil {
		t.Fatal(err)
	}
	feedTenantHTTP(t, s, "win", 7)
	co.snapshot(false)
	if sink.Len() != 2 {
		t.Fatalf("snapshot with new items: %d frames, want 2", sink.Len())
	}
	co.snapshot(false)
	if sink.Len() != 3 {
		t.Fatalf("idle pool with a pinned tenant must still snapshot: %d frames, want 3", sink.Len())
	}
}

func TestCoordinatorStoreFailureIsCountedNotFatal(t *testing.T) {
	s := newTestServer(t, 100000)
	sink := ckpt.NewMemSink()
	co := newCoordinator(s, sink, time.Hour, 0)
	ingestN(t, s, 0, 100)

	sink.FailStore = errors.New("disk full")
	co.snapshot(false)
	if s.obs.ckptErrors.Value() != 1 || s.obs.ckpt.Value() != 0 {
		t.Fatalf("after failed store: errors %d, total %d", s.obs.ckptErrors.Value(), s.obs.ckpt.Value())
	}
	// The failed sequence number is not burned: the next success is 1.
	sink.FailStore = nil
	co.snapshot(false)
	if uint64(s.obs.ckptLastSeq.Value()) != 1 || sink.Len() != 1 {
		t.Fatalf("after recovery: seq %d, frames %d", uint64(s.obs.ckptLastSeq.Value()), sink.Len())
	}
}

func TestCoordinatorDrainingServerSnapshot(t *testing.T) {
	// The shutdown path: draining flips readiness, the engine drains and
	// closes, and only then is the final snapshot taken — it must cover
	// every accepted item and restore cleanly.
	s := newTestServer(t, 100000)
	sink := ckpt.NewMemSink()
	co := newCoordinator(s, sink, time.Hour, 0)
	ingestN(t, s, 0, 1000)

	s.setDraining()
	if err := s.shutdown(); err != nil {
		t.Fatal(err)
	}
	co.finalSnapshot()
	payload, seq, err := sink.LoadNewest()
	if err != nil || payload == nil || seq != 1 {
		t.Fatalf("final snapshot: payload %d bytes, seq %d, err %v", len(payload), seq, err)
	}
	restored, err := newServerFromCheckpoint(testSpec(100000, 7), payload)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restored.engine().Close() })
	if got := restored.engine().Len(); got != 1000 {
		t.Fatalf("restored from draining snapshot: Len %d, want 1000", got)
	}
}

func TestCoordinatorRunLoop(t *testing.T) {
	s := newTestServer(t, 100000)
	sink := ckpt.NewMemSink()
	co := newCoordinator(s, sink, 5*time.Millisecond, 0)
	ctx, cancel := context.WithCancel(context.Background())
	go co.run(ctx)
	ingestN(t, s, 0, 200)

	deadline := time.Now().Add(10 * time.Second)
	for sink.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the coordinator loop never snapshotted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	co.wait()
	// After wait returns, the loop is done: a forced final snapshot does
	// not race the ticker for a sequence number.
	frames := sink.Len()
	co.finalSnapshot()
	if sink.Len() != frames+1 {
		t.Fatalf("final snapshot after wait: %d frames, want %d", sink.Len(), frames+1)
	}
}
