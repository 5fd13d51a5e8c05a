package pool

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/wire"
)

func mustDecodeFrame(t *testing.T, frame []byte) []byte {
	t.Helper()
	blob, err := ckpt.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSnapshotRestoreRoundTrip: a pool with resident, spilled, pinned
// and volatile tenants snapshots into a manifest that restores to the
// same answers — except the volatile tenant, which by contract is
// absent after a restart.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	modes := map[string]Mode{"pin": Pinned, "vol": Volatile}
	modeFor := func(tenant string) Mode { return modes[tenant] }
	p, _ := testPool(t, 10_000, modeFor)
	insertN(t, p, "a", 1, 2)
	insertN(t, p, "b", 3)
	insertN(t, p, "pin", 4)
	insertN(t, p, "vol", 5)
	if err := p.Evict("b"); err != nil { // one tenant snapshots from the store
		t.Fatal(err)
	}
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	store2 := NewMemStore()
	p2, err := Restore(blob, Config{
		Store: store2,
		Factory: func(tenant string) (Engine, Mode, error) {
			return &fakeEngine{}, modeFor(tenant), nil
		},
		Restorer: restoreFake,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Stats(); got.TenantsSpilled != 3 || got.TenantsLive != 0 {
		t.Fatalf("restored pool occupancy: %+v", got)
	}
	if got := p2.cfg.BudgetBits; got != 10_000 {
		t.Fatalf("restored budget = %d, want the manifest's 10000", got)
	}
	for tenant, want := range map[string][]uint64{"a": {1, 2}, "b": {3}, "pin": {4}} {
		if got := tenantData(t, p2, tenant); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("restored %q = %v, want %v", tenant, got, want)
		}
	}
	// The pinned tenant keeps its classification across the restore.
	if err := p2.Evict("pin"); err == nil {
		t.Fatal("restored pinned tenant should refuse eviction")
	}
	// The volatile tenant was never serialized: it restarts unknown.
	if err := p2.View("vol", func(Engine) error { return nil }); err == nil {
		t.Fatal("volatile tenant must be absent from the restored pool")
	}
}

// hookEngine is a fakeEngine whose MarshalBinary first runs a callback
// — the lever tests use to interleave pool operations with a snapshot
// walk deterministically.
type hookEngine struct {
	fakeEngine
	onMarshal func()
}

func (h *hookEngine) MarshalBinary() ([]byte, error) {
	if h.onMarshal != nil {
		h.onMarshal()
	}
	return h.fakeEngine.MarshalBinary()
}

// TestSnapshotCoversConcurrentRevival reproduces the lost-tenant race:
// the snapshot lists residents and spilled tenants once up front, so a
// tenant that is spilled at listing time but revived (store frame
// deleted) before the spilled walk reads it was in neither walk and
// vanished from the manifest. The revival sweep must pick it up from
// the live resident map instead.
func TestSnapshotCoversConcurrentRevival(t *testing.T) {
	blocker := &hookEngine{}
	store := NewMemStore()
	p, err := New(Config{
		Store: store,
		Factory: func(tenant string) (Engine, Mode, error) {
			if tenant == "blocker" {
				return blocker, Spillable, nil
			}
			return &fakeEngine{}, Spillable, nil
		},
		Restorer: restoreFake,
	})
	if err != nil {
		t.Fatal(err)
	}
	insertN(t, p, "victim", 1, 2, 3)
	if err := p.Do("blocker", func(e Engine) error {
		e.(*hookEngine).insert(9)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Evict("victim"); err != nil {
		t.Fatal(err)
	}
	// While the snapshot's resident walk encodes the blocker, the victim
	// revives: its store frame is deleted and it joins the resident map
	// — after the snapshot captured both listings.
	revived := false
	blocker.onMarshal = func() {
		if revived {
			return
		}
		revived = true
		if err := p.Do("victim", func(Engine) error { return nil }); err != nil {
			t.Errorf("revive victim: %v", err)
		}
	}
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !revived {
		t.Fatal("test harness: the marshal hook never fired")
	}
	m, err := decodeManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	for _, r := range m.Records {
		got[r.Tenant] = mustDecodeFrame(t, r.Frame)
	}
	if _, ok := got["blocker"]; !ok {
		t.Fatalf("blocker missing from manifest: %v", m.Records)
	}
	victim, ok := got["victim"]
	if !ok {
		t.Fatalf("tenant revived during the snapshot walk vanished from the manifest: %v", m.Records)
	}
	eng, err := restoreFake("victim", victim)
	if err != nil {
		t.Fatal(err)
	}
	if data := eng.(*fakeEngine).data; fmt.Sprint(data) != fmt.Sprint([]uint64{1, 2, 3}) {
		t.Fatalf("victim state after revival race = %v, want [1 2 3]", data)
	}
}

// TestSnapshotDirtyCache: an untouched tenant reuses its cached frame
// across snapshots; a touch invalidates it.
func TestSnapshotDirtyCache(t *testing.T) {
	p, _ := testPool(t, 0, nil)
	insertN(t, p, "a", 1)
	if _, err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	var cached []byte
	p.mu.Lock()
	cached = p.res["a"].frame
	p.mu.Unlock()
	if cached == nil {
		t.Fatal("snapshot should cache the encoded frame")
	}
	insertN(t, p, "a", 2)
	p.mu.Lock()
	cached = p.res["a"].frame
	p.mu.Unlock()
	if cached != nil {
		t.Fatal("a touch must invalidate the cached frame")
	}
}

// TestSnapshotPinnedNotCached: pinned engines (time windows,
// sentinels) can change state by wall clock alone, with no pool
// operation to invalidate the frame cache — so a snapshot must always
// re-encode them rather than reuse a cached frame.
func TestSnapshotPinnedNotCached(t *testing.T) {
	p, _ := testPool(t, 0, func(string) Mode { return Pinned })
	insertN(t, p, "win", 1)
	if _, err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Mutate the engine behind the pool's back, as wall-clock
	// retirement does: no pool operation runs, so nothing clears a
	// cached frame.
	p.mu.Lock()
	e := p.res["win"]
	p.mu.Unlock()
	e.eng.(*fakeEngine).insert(2)
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != 1 || m.Records[0].Tenant != "win" || !m.Records[0].Pinned {
		t.Fatalf("manifest records: %+v", m.Records)
	}
	eng, err := restoreFake("win", mustDecodeFrame(t, m.Records[0].Frame))
	if err != nil {
		t.Fatal(err)
	}
	if data := eng.(*fakeEngine).data; fmt.Sprint(data) != fmt.Sprint([]uint64{1, 2}) {
		t.Fatalf("pinned tenant snapshotted stale state %v, want [1 2]", data)
	}
}

// TestRestoreBudgetOverride: a caller-supplied budget wins over the
// manifest's.
func TestRestoreBudgetOverride(t *testing.T) {
	p, _ := testPool(t, 5_000, nil)
	insertN(t, p, "a", 1)
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Restore(blob, Config{
		BudgetBits: 9_999,
		Store:      NewMemStore(),
		Factory:    func(string) (Engine, Mode, error) { return &fakeEngine{}, Spillable, nil },
		Restorer:   restoreFake,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Stats().BudgetBits; got != 9_999 {
		t.Fatalf("budget override = %d, want 9999", got)
	}
}

// validManifest builds a well-formed encoding for the rejection tests
// to corrupt.
func validManifest(t *testing.T) []byte {
	t.Helper()
	frame := ckpt.Encode([]byte("engine-blob"))
	return encodeManifest(manifest{
		BudgetBits: 4096,
		Records: []manifestRecord{
			{Tenant: "alice", Bits: 512, Frame: frame},
			{Tenant: "bob", Pinned: true, Bits: 256, Frame: frame},
		},
	})
}

// TestDecodeManifestRejections: every corruption class is refused with
// a descriptive error, never a panic or a silently wrong manifest.
func TestDecodeManifestRejections(t *testing.T) {
	good := validManifest(t)
	if _, err := decodeManifest(good); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "corrupt"},
		{"bad version", append([]byte{99}, good[1:]...), "version"},
		{"truncated", good[:len(good)/2], ""},
		{"trailing junk", append(append([]byte(nil), good...), 0xFF), "trailing"},
		{"frame corrupt", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0xFF // inside the last record's ckpt frame
			return b
		}(), "checksum"},
		{"count lie", func() []byte {
			// A header that promises 200 records over an empty body.
			w := wire.NewWriter()
			w.U64(manifestVersion)
			w.I64(0)
			w.U64(200)
			return w.Bytes()
		}(), "count"},
	}
	for _, tc := range cases {
		_, err := decodeManifest(tc.data)
		if err == nil {
			t.Errorf("%s: decode accepted corrupt input", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Duplicate tenant names.
	frame := ckpt.Encode([]byte("x"))
	dup := encodeManifest(manifest{Records: []manifestRecord{
		{Tenant: "same", Frame: frame},
		{Tenant: "same", Frame: frame},
	}})
	if _, err := decodeManifest(dup); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Errorf("duplicate names: %v", err)
	}
	// Records out of the encoder's sorted order: the canonical re-encode
	// would reorder them, so the decoder refuses.
	unsorted := wire.NewWriter()
	unsorted.U64(manifestVersion)
	unsorted.I64(0)
	unsorted.U64(2)
	for _, name := range []string{"b", "a"} {
		unsorted.Blob([]byte(name))
		unsorted.U64(0)
		unsorted.U64(0)
		unsorted.Blob(frame)
	}
	if _, err := decodeManifest(unsorted.Bytes()); err == nil || !strings.Contains(err.Error(), "sorted order") {
		t.Errorf("unsorted records: %v", err)
	}
}

// TestEncodeManifestDeterministic: record order does not change the
// encoding (records are sorted by tenant).
func TestEncodeManifestDeterministic(t *testing.T) {
	frame := ckpt.Encode([]byte("x"))
	a := encodeManifest(manifest{Records: []manifestRecord{
		{Tenant: "a", Frame: frame}, {Tenant: "b", Frame: frame},
	}})
	b := encodeManifest(manifest{Records: []manifestRecord{
		{Tenant: "b", Frame: frame}, {Tenant: "a", Frame: frame},
	}})
	if !bytes.Equal(a, b) {
		t.Fatal("manifest encoding depends on record order")
	}
}
