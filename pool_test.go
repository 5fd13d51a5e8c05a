package l1hh

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// poolDefaults is the standard tenant option set the pool tests build
// on: small deterministic engines whose exact reports make evict/revive
// comparisons exact.
func poolDefaults() PoolOption {
	return WithTenantDefaults(
		WithEps(0.1), WithPhi(0.3), WithStreamLength(1000),
		WithUniverse(1<<20), WithAlgorithm(AlgorithmSimple), WithSeed(7),
	)
}

// feedTenant plants a deterministic stream: `heavy` eight times, eight
// distinct noise singletons.
func feedTenant(t *testing.T, p *Pool, tenant string, heavy Item) {
	t.Helper()
	batch := []Item{heavy, heavy, heavy, heavy, heavy, heavy, heavy, heavy}
	for i := Item(0); i < 8; i++ {
		batch = append(batch, 1000+i)
	}
	if err := p.InsertBatch(tenant, batch); err != nil {
		t.Fatalf("InsertBatch(%s): %v", tenant, err)
	}
}

// viewOf reads f of tenant's engine through Pool.View, reviving the
// tenant if it was spilled; unknown tenants get ErrUnknownTenant.
func viewOf[T any](p *Pool, tenant string, f func(HeavyHitters) T) (T, error) {
	var out T
	err := p.View(tenant, func(hh HeavyHitters) error {
		out = f(hh)
		return nil
	})
	return out, err
}

// checkpointOf serializes tenant's engine through Pool.View.
func checkpointOf(p *Pool, tenant string) (blob []byte, err error) {
	err = p.View(tenant, func(hh HeavyHitters) (merr error) {
		blob, merr = hh.MarshalBinary()
		return merr
	})
	return blob, err
}

// TestPoolEvictReviveBitIdentical: a tenant's engine checkpoint is bit
// for bit identical before eviction and after revival, and its report
// is unchanged.
func TestPoolEvictReviveBitIdentical(t *testing.T) {
	p, err := NewPool(poolDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	feedTenant(t, p, "alice", 42)
	before, err := checkpointOf(p, "alice")
	if err != nil {
		t.Fatal(err)
	}
	repBefore, err := viewOf(p, "alice", HeavyHitters.Report)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Evict("alice"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.TenantsSpilled != 1 || st.TenantsLive != 0 {
		t.Fatalf("after evict: %+v", st)
	}
	after, err := checkpointOf(p, "alice") // revives
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("engine checkpoint differs across evict/revive")
	}
	repAfter, err := viewOf(p, "alice", HeavyHitters.Report)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(repBefore) != fmt.Sprint(repAfter) {
		t.Fatalf("report changed across evict/revive:\n  before %v\n  after  %v", repBefore, repAfter)
	}
	if st := p.Stats(); st.Revives != 1 {
		t.Fatalf("revive not counted: %+v", st)
	}
}

// TestPoolBudgetEvictsLRU: a budget sized for two engines keeps the
// two most recently used tenants resident and spills the rest, with
// every tenant still answering correctly after revival.
func TestPoolBudgetEvictsLRU(t *testing.T) {
	probe, err := NewPool(poolDefaults())
	if err != nil {
		t.Fatal(err)
	}
	feedTenant(t, probe, "probe", 1)
	per, err := viewOf(probe, "probe", HeavyHitters.Stats)
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()

	p, err := NewPool(poolDefaults(), WithPoolBudget(2*per.ModelBits+per.ModelBits/2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 6; i++ {
		feedTenant(t, p, fmt.Sprintf("t%d", i), Item(100+i))
	}
	st := p.Stats()
	if st.Evictions == 0 || st.TenantsLive+st.TenantsSpilled != 6 {
		t.Fatalf("budget did not evict: %+v", st)
	}
	if st.BudgetBits > 0 && st.ModelBitsInUse > st.BudgetBits {
		t.Fatalf("resident bits %d exceed budget %d after settling", st.ModelBitsInUse, st.BudgetBits)
	}
	for i := 0; i < 6; i++ {
		rep, err := viewOf(p, fmt.Sprintf("t%d", i), HeavyHitters.Report)
		if err != nil {
			t.Fatalf("Report(t%d): %v", i, err)
		}
		if len(rep) == 0 || rep[0].Item != Item(100+i) {
			t.Fatalf("t%d lost its heavy hitter across spill: %v", i, rep)
		}
	}
}

// TestPoolModes: sentinel and time-window tenants pin, unknown-length
// tenants are volatile; all refuse eviction.
func TestPoolModes(t *testing.T) {
	p, err := NewPool(poolDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.SetTenantOptions("audited", WithAccuracySentinel(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.SetTenantOptions("timed", WithTimeWindow(time.Minute, 4)); err != nil {
		t.Fatal(err)
	}
	feedTenant(t, p, "audited", 9)
	feedTenant(t, p, "timed", 9)
	if err := p.Evict("audited"); err == nil {
		t.Fatal("sentinel tenant must refuse eviction")
	}
	if err := p.Evict("timed"); err == nil {
		t.Fatal("time-window tenant must refuse eviction")
	}
	st, err := viewOf(p, "audited", HeavyHitters.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sentinel == nil {
		t.Fatal("audited tenant carries no sentinel")
	}
	if got := p.Stats().TenantsPinned; got != 2 {
		t.Fatalf("TenantsPinned = %d, want 2", got)
	}
}

// TestPoolSetTenantOptionsAfterTouch: overrides apply at first touch
// only.
func TestPoolSetTenantOptionsAfterTouch(t *testing.T) {
	p, err := NewPool(poolDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	feedTenant(t, p, "x", 1)
	if err := p.SetTenantOptions("x", WithSeed(99)); err == nil {
		t.Fatal("overrides after first touch must fail")
	}
	// Invalid combinations are rejected eagerly.
	if err := p.SetTenantOptions("y", WithAccuracySentinel(1), WithTimeWindow(time.Second, 2)); err == nil {
		t.Fatal("sentinel+window must fail validation")
	}
}

// TestPoolCheckpointRoundTrip: MarshalBinary → UnmarshalPool preserves
// every serializable tenant's answers and the items counter; the
// restored pool revives lazily.
func TestPoolCheckpointRoundTrip(t *testing.T) {
	p, err := NewPool(poolDefaults(), WithPoolBudget(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		feedTenant(t, p, fmt.Sprintf("t%d", i), Item(200+i))
	}
	wantItems := p.Stats().Items
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if !IsPoolCheckpoint(blob) {
		t.Fatal("IsPoolCheckpoint should recognize pool bytes")
	}
	// The single-solver door refuses pool bytes with a pointer to the
	// right one.
	if _, err := Unmarshal(blob); err == nil {
		t.Fatal("Unmarshal must refuse pool bytes")
	}

	p2, err := UnmarshalPool(blob, poolDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	st := p2.Stats()
	if st.TenantsSpilled != 4 || st.TenantsLive != 0 {
		t.Fatalf("restored occupancy: %+v", st)
	}
	if st.Items != wantItems {
		t.Fatalf("items counter: got %d, want %d", st.Items, wantItems)
	}
	if st.BudgetBits != 1<<30 {
		t.Fatalf("restored budget: %d", st.BudgetBits)
	}
	for i := 0; i < 4; i++ {
		rep, err := viewOf(p2, fmt.Sprintf("t%d", i), HeavyHitters.Report)
		if err != nil {
			t.Fatalf("restored Report(t%d): %v", i, err)
		}
		if len(rep) == 0 || rep[0].Item != Item(200+i) {
			t.Fatalf("restored t%d report: %v", i, rep)
		}
	}
	// New tenants still work through the defaults.
	feedTenant(t, p2, "fresh", 7)
	if rep, _ := viewOf(p2, "fresh", HeavyHitters.Report); len(rep) == 0 || rep[0].Item != 7 {
		t.Fatalf("fresh tenant on restored pool: %v", rep)
	}
}

// TestPoolUnknownAndBusy pins the error vocabulary at the public
// layer.
func TestPoolUnknownAndBusy(t *testing.T) {
	p, err := NewPool(poolDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := viewOf(p, "ghost", HeavyHitters.Report); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Report(ghost): %v", err)
	}
	if err := p.Insert("", 1); !errors.Is(err, ErrInvalidTenant) {
		t.Fatalf("empty tenant: %v", err)
	}
	if err := p.InsertBatchBounded("new", []Item{1, 2}, 10*time.Millisecond); err != nil {
		t.Fatalf("bounded insert on a fresh tenant: %v", err)
	}
}

// TestPoolVolatileTenant: unknown-length tenants work but never spill
// and are absent from checkpoints.
func TestPoolVolatileTenant(t *testing.T) {
	p, err := NewPool(WithTenantDefaults(
		WithEps(0.1), WithPhi(0.3), WithUniverse(1<<20), // no stream length
	))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Insert("v", 5); err != nil {
		t.Fatal(err)
	}
	if err := p.Evict("v"); err == nil {
		t.Fatal("volatile tenant must refuse eviction")
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := UnmarshalPool(blob, WithTenantDefaults(
		WithEps(0.1), WithPhi(0.3), WithUniverse(1<<20),
	))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if _, err := viewOf(p2, "v", HeavyHitters.Report); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("volatile tenant should be absent after restore: %v", err)
	}
}
