package l1hh

// pool.go — the multi-tenant front door. A Pool keys independent
// HeavyHitters solvers by tenant name behind one shared model-bits
// budget: engines are built lazily on first insert (pool-level default
// options, with optional per-tenant overrides), and when the resident
// bits exceed the budget the least-recently-used tenant is checkpointed
// to a spill store and revived transparently on its next touch. This is
// the deployment shape the paper's space bound buys — O(ε⁻¹ log ϕ⁻¹ +
// log δ⁻¹ + log log m) bits per sketch means a fixed budget holds
// thousands of hot tenants, and a cold tenant costs only its spilled
// frame (DESIGN.md §13).

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/wire"
)

// Errors the pool tier adds; test with errors.Is.
var (
	// ErrTenantBusy is returned by InsertBatchBounded when the
	// tenant's engine stayed busy past the bounded wait (per-tenant
	// operations are serialized; cmd/hhd sheds these as 429).
	ErrTenantBusy = pool.ErrBusy
	// ErrUnknownTenant is returned by read operations (View, Evict)
	// for tenants that were never inserted into.
	ErrUnknownTenant = pool.ErrUnknownTenant
	// ErrInvalidTenant rejects empty tenant names and names longer
	// than MaxTenantName bytes.
	ErrInvalidTenant = pool.ErrInvalidTenant
)

// MaxTenantName is the longest tenant name a Pool accepts, in bytes.
const MaxTenantName = pool.MaxTenantName

// SpillStore is where a Pool keeps evicted tenants: one self-validating
// checkpoint frame per tenant. Implementations must be safe for
// concurrent use; Put must be durable (to the store's own standard)
// before returning, because the pool closes the engine right after.
// NewMemSpillStore and NewDiskSpillStore cover the common cases.
type SpillStore interface {
	// Put stores the framed checkpoint for tenant, replacing any
	// previous frame.
	Put(tenant string, frame []byte) error
	// Get returns the stored frame; ok=false is a normal miss.
	Get(tenant string) (frame []byte, ok bool, err error)
	// Delete drops the frame; deleting an absent tenant is no error.
	Delete(tenant string) error
}

// NewMemSpillStore returns an in-memory SpillStore — the default when
// a budgeted pool is built without WithPoolSpill. Spilled tenants
// survive eviction but not the process.
func NewMemSpillStore() SpillStore { return pool.NewMemStore() }

// NewDiskSpillStore returns a SpillStore persisting one file per
// tenant under dir (created if needed), with atomic writes; combined
// with Pool.MarshalBinary checkpoints it makes spilled tenants survive
// restarts.
func NewDiskSpillStore(dir string) (SpillStore, error) { return pool.NewDiskStore(dir) }

// PoolTimings carries optional latency callbacks for the pool's
// spill/revive paths (WithPoolObserver). They run on the eviction and
// revival paths, so implementations should be cheap — a histogram
// observation, not a log line. Nil fields disable that hook.
type PoolTimings struct {
	// Revive observes one spilled tenant's revival: store read, frame
	// validation, engine restore.
	Revive func(d time.Duration)
	// Spill observes one eviction: engine checkpoint encode plus the
	// durable store write.
	Spill func(d time.Duration)
}

// PoolOption configures NewPool and UnmarshalPool.
type PoolOption func(*poolSettings)

// poolSettings is the resolved PoolOption set.
type poolSettings struct {
	defaults []Option
	budget   int64
	store    SpillStore
	timings  PoolTimings
	errs     []error
}

// WithTenantDefaults sets the Option set every tenant's engine is
// built with (WithEps and WithPhi are required here, exactly as for
// New). Per-tenant overrides registered via SetTenantOptions are
// appended after these, so later options win where they overlap.
func WithTenantDefaults(opts ...Option) PoolOption {
	return func(ps *poolSettings) { ps.defaults = append(ps.defaults, opts...) }
}

// WithPoolBudget caps the total model bits of resident engines; past
// it the pool evicts least-recently-used tenants to the spill store.
// 0 (the default) means unlimited — no eviction. On UnmarshalPool a
// positive budget overrides the checkpointed one.
func WithPoolBudget(bits int64) PoolOption {
	return func(ps *poolSettings) {
		if bits < 0 {
			ps.errs = append(ps.errs, fmt.Errorf("l1hh: WithPoolBudget needs bits ≥ 0, got %d", bits))
			return
		}
		ps.budget = bits
	}
}

// WithPoolSpill sets the store evicted tenants are checkpointed to.
// Default: an in-memory store (NewMemSpillStore).
func WithPoolSpill(store SpillStore) PoolOption {
	return func(ps *poolSettings) {
		if store == nil {
			ps.errs = append(ps.errs, errors.New("l1hh: WithPoolSpill needs a non-nil store"))
			return
		}
		ps.store = store
	}
}

// WithPoolObserver installs latency callbacks on the spill and revive
// paths (cmd/hhd feeds them into its stage-duration histograms).
func WithPoolObserver(t PoolTimings) PoolOption {
	return func(ps *poolSettings) { ps.timings = t }
}

// PoolStats is one coherent snapshot of a Pool's occupancy, the
// operational counterpart of a single solver's Stats.
type PoolStats struct {
	// TenantsLive counts resident engines; TenantsSpilled the evicted
	// tenants awaiting revival; TenantsPinned the resident tenants the
	// eviction sweep must skip (pinned or unserializable).
	TenantsLive, TenantsSpilled, TenantsPinned int
	// ModelBitsInUse is the resident total under the paper's
	// accounting; BudgetBits the configured ceiling (0 = unlimited).
	ModelBitsInUse, BudgetBits int64
	// Evictions, Revives and SpillErrors count spill-lifecycle events;
	// TenantsCreated counts first-touch engine constructions.
	Evictions, Revives, SpillErrors, TenantsCreated uint64
	// SpilledBytes sums the frame sizes of currently spilled tenants.
	SpilledBytes int64
	// Items counts every item accepted across all tenants.
	Items uint64
}

// Pool is a tenant-keyed collection of HeavyHitters solvers sharing
// one model-bits budget, with LRU spill/revive (DESIGN.md §13). All
// methods are safe for concurrent use; operations on one tenant are
// serialized, distinct tenants proceed in parallel.
//
// Tenants whose engines cannot spill are handled by classification at
// creation: time-window and accuracy-sentinel tenants are pinned
// (serialized into pool checkpoints but never evicted — a spill gap
// would silently age a wall-clock window and a revived sentinel's
// shadow never saw the restored history), and unknown-stream-length
// tenants are volatile (never evicted, absent from checkpoints).
type Pool struct {
	inner    *pool.Pool
	defaults []Option
	timings  PoolTimings

	items     atomic.Uint64
	overrides ovStore
}

// ovStore guards the per-tenant override registry.
type ovStore struct {
	mu sync.Mutex
	m  map[string][]Option
}

// NewPool builds a multi-tenant pool. WithTenantDefaults must carry a
// valid New option set (WithEps and WithPhi at minimum); every other
// PoolOption is optional — without WithPoolBudget nothing is ever
// evicted, and without WithPoolSpill evictions go to an in-memory
// store.
func NewPool(popts ...PoolOption) (*Pool, error) {
	ps, err := resolvePoolOptions(popts)
	if err != nil {
		return nil, err
	}
	p := &Pool{defaults: ps.defaults, timings: ps.timings}
	p.overrides.m = make(map[string][]Option)
	inner, err := pool.New(p.poolConfig(ps))
	if err != nil {
		return nil, err
	}
	p.inner = inner
	return p, nil
}

// resolvePoolOptions applies popts and validates the tenant defaults
// the same way New would.
func resolvePoolOptions(popts []PoolOption) (poolSettings, error) {
	var ps poolSettings
	for _, o := range popts {
		if o == nil {
			return ps, errors.New("l1hh: nil PoolOption")
		}
		o(&ps)
	}
	if len(ps.errs) > 0 {
		return ps, ps.errs[0]
	}
	st, err := resolveOptions(ps.defaults)
	if err != nil {
		return ps, fmt.Errorf("l1hh: pool tenant defaults: %w", err)
	}
	if err := st.validateNew(); err != nil {
		return ps, fmt.Errorf("l1hh: pool tenant defaults: %w", err)
	}
	if ps.store == nil {
		ps.store = NewMemSpillStore()
	}
	return ps, nil
}

// poolConfig assembles the internal pool wiring over p's settings.
func (p *Pool) poolConfig(ps poolSettings) pool.Config {
	return pool.Config{
		BudgetBits: ps.budget,
		Store:      ps.store,
		Factory:    p.buildTenant,
		Restorer: func(_ string, blob []byte) (pool.Engine, error) {
			return Unmarshal(blob)
		},
		Hooks: pool.Hooks{
			Evicted: func(_ string, d time.Duration, _ int64) {
				if p.timings.Spill != nil {
					p.timings.Spill(d)
				}
			},
			Revived: func(_ string, d time.Duration) {
				if p.timings.Revive != nil {
					p.timings.Revive(d)
				}
			},
		},
	}
}

// buildTenant is the pool's engine factory: defaults plus the tenant's
// registered overrides, classified for spillability.
func (p *Pool) buildTenant(tenant string) (pool.Engine, pool.Mode, error) {
	opts := p.optsFor(tenant)
	st, err := resolveOptions(opts)
	if err != nil {
		return nil, 0, err
	}
	if err := st.validateNew(); err != nil {
		return nil, 0, err
	}
	hh, err := New(opts...)
	if err != nil {
		return nil, 0, err
	}
	return hh, classifyMode(&st), nil
}

// classifyMode maps a resolved option set to its spill behaviour.
func classifyMode(st *settings) pool.Mode {
	switch {
	case st.has(optTimeWindow | optSentinel):
		return pool.Pinned
	case !st.has(optStreamLength) && !st.has(optCountWindow):
		// Unknown stream length: the Theorem 7 machinery is not
		// serializable at all.
		return pool.Volatile
	default:
		return pool.Spillable
	}
}

// optsFor returns defaults plus the tenant's overrides.
func (p *Pool) optsFor(tenant string) []Option {
	p.overrides.mu.Lock()
	ov := p.overrides.m[tenant]
	p.overrides.mu.Unlock()
	if len(ov) == 0 {
		return p.defaults
	}
	out := make([]Option, 0, len(p.defaults)+len(ov))
	out = append(out, p.defaults...)
	return append(out, ov...)
}

// SetTenantOptions registers per-tenant Option overrides, applied
// after the pool defaults when the tenant's engine is built. It must
// run before the tenant's first touch: once an engine exists (resident
// or spilled) the options are part of its state and the call fails.
// Overrides are not serialized into pool checkpoints — re-register
// them after UnmarshalPool, where they again apply only to tenants the
// checkpoint does not already carry.
func (p *Pool) SetTenantOptions(tenant string, opts ...Option) error {
	if tenant == "" || len(tenant) > MaxTenantName {
		return ErrInvalidTenant
	}
	combined := append(append([]Option(nil), p.defaults...), opts...)
	st, err := resolveOptions(combined)
	if err != nil {
		return err
	}
	if err := st.validateNew(); err != nil {
		return err
	}
	p.overrides.mu.Lock()
	defer p.overrides.mu.Unlock()
	if p.inner.Known(tenant) {
		return fmt.Errorf("l1hh: tenant %q already has an engine — options apply at first touch", tenant)
	}
	p.overrides.m[tenant] = append([]Option(nil), opts...)
	return nil
}

// Insert feeds one item into tenant's engine, creating or reviving it
// as needed.
func (p *Pool) Insert(tenant string, x Item) error {
	err := p.inner.Do(tenant, func(e pool.Engine) error {
		return e.(HeavyHitters).Insert(x)
	})
	if err == nil {
		p.items.Add(1)
	}
	return err
}

// InsertBatch feeds a batch into tenant's engine, the amortized fast
// path. The input slice is not retained.
func (p *Pool) InsertBatch(tenant string, items []Item) error {
	err := p.inner.Do(tenant, func(e pool.Engine) error {
		return e.(HeavyHitters).InsertBatch(items)
	})
	if err == nil {
		p.items.Add(uint64(len(items)))
	}
	return err
}

// InsertBatchBounded inserts like InsertBatch but bounds both waits a
// multi-tenant server cares about: ErrTenantBusy when the tenant's
// engine stayed busy past wait, and — for tenants whose engines are
// Shedders (sharded overrides) — ErrSaturated from the engine's own
// bounded enqueue. Either error means back off and retry. wait is one
// shared bound: whatever the wait for the tenant's engine consumed is
// deducted from the wait given to the engine's bounded enqueue, so the
// total block stays within wait (plus any unbounded first-touch
// creation or revival, after which the enqueue degrades to try-only).
func (p *Pool) InsertBatchBounded(tenant string, items []Item, wait time.Duration) error {
	start := time.Now()
	err := p.inner.DoBounded(tenant, wait, func(e pool.Engine) error {
		hh := e.(HeavyHitters)
		if sh, ok := hh.(Shedder); ok {
			remaining := wait - time.Since(start)
			if remaining < 0 {
				remaining = 0
			}
			return sh.InsertBatchBounded(items, remaining)
		}
		return hh.InsertBatch(items)
	})
	if err == nil {
		p.items.Add(uint64(len(items)))
	}
	return err
}

// Vote feeds one ballot into tenant's engine, creating or reviving it
// as needed — the voting analogue of Insert. The tenant must be
// configured with a voting problem (WithProblem(BordaProblem) or
// WithProblem(MaximinProblem) in its defaults or overrides);
// non-voting tenants refuse.
func (p *Pool) Vote(tenant string, r Ranking) error {
	err := p.inner.Do(tenant, func(e pool.Engine) error {
		v, ok := e.(Voter)
		if !ok {
			return fmt.Errorf("tenant %q: %w", tenant, ErrNotRankings)
		}
		return v.Vote(r)
	})
	if err == nil {
		p.items.Add(1)
	}
	return err
}

// View runs f over tenant's engine under the tenant's serialization,
// reviving it if spilled — the generic read path for capability
// queries: assert Voter, Extremes or PointQuerier on the engine inside
// f. Unknown tenants get ErrUnknownTenant — a view never creates an
// engine. The engine must not be retained or used outside f.
func (p *Pool) View(tenant string, f func(hh HeavyHitters) error) error {
	return p.inner.View(tenant, func(e pool.Engine) error {
		return f(e.(HeavyHitters))
	})
}

// Evict forces tenant out to the spill store regardless of budget
// pressure (an operator lever; the budget sweep normally decides).
// Pinned and volatile tenants refuse.
func (p *Pool) Evict(tenant string) error { return p.inner.Evict(tenant) }

// Tenants returns the sorted names of every tenant the pool knows,
// resident and spilled.
func (p *Pool) Tenants() []string { return p.inner.Tenants() }

// Stats returns the pool-wide occupancy snapshot.
func (p *Pool) Stats() PoolStats {
	st := p.inner.Stats()
	return PoolStats{
		TenantsLive:    st.TenantsLive,
		TenantsSpilled: st.TenantsSpilled,
		TenantsPinned:  st.TenantsPinned,
		ModelBitsInUse: st.BitsInUse,
		BudgetBits:     st.BudgetBits,
		Evictions:      st.Evictions,
		Revives:        st.Revives,
		SpillErrors:    st.SpillErrors,
		TenantsCreated: st.Created,
		SpilledBytes:   st.SpilledBytes,
		Items:          p.items.Load(),
	}
}

// poolFrameVersion versions the tagPool container layout (inside it,
// the manifest carries its own version).
const poolFrameVersion = 1

// MarshalBinary checkpoints the whole pool: every serializable tenant
// (resident and spilled, pinned included) plus the budget and the
// accepted-item counter. Volatile tenants are omitted — they cannot
// serialize. Per-tenant state is consistent; the manifest is not a
// cross-tenant barrier. Restore with UnmarshalPool.
func (p *Pool) MarshalBinary() ([]byte, error) {
	mblob, err := p.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter()
	w.U64(poolFrameVersion)
	w.U64(p.items.Load())
	w.Blob(mblob)
	return append([]byte{tagPool}, w.Bytes()...), nil
}

// Close stops the pool: every resident engine is closed and subsequent
// operations return ErrClosed. MarshalBinary still works afterwards —
// the shutdown sequence is Close then a final checkpoint. Idempotent.
func (p *Pool) Close() error { return p.inner.Close() }

// IsPoolCheckpoint reports whether data is a Pool checkpoint (restore
// with UnmarshalPool) as opposed to a single-solver one (Unmarshal).
func IsPoolCheckpoint(data []byte) bool {
	return len(data) > 0 && data[0] == tagPool
}

// UnmarshalPool restores a Pool from MarshalBinary bytes. Every
// checkpointed tenant starts spilled — seeded into the spill store and
// revived lazily on first touch, so a restart pays nothing for tenants
// that never come back. popts carries the runtime wiring exactly as
// NewPool: WithTenantDefaults governs tenants the checkpoint does not
// know, WithPoolBudget (when positive) overrides the checkpointed
// budget, WithPoolSpill/WithPoolObserver re-attach the store and the
// instrumentation. Per-tenant overrides and accuracy sentinels are not
// serialized (a restored history was never sampled); re-register what
// still applies.
func UnmarshalPool(data []byte, popts ...PoolOption) (*Pool, error) {
	if !IsPoolCheckpoint(data) {
		return nil, errors.New("l1hh: not a pool checkpoint (see Unmarshal for single-solver encodings)")
	}
	r := wire.NewReader(data[1:])
	if v := r.U64(); r.Err() == nil && v != poolFrameVersion {
		return nil, fmt.Errorf("l1hh: unsupported pool checkpoint version %d", v)
	}
	items := r.U64()
	mblob := r.Blob()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("l1hh: pool checkpoint: %w", err)
	}
	if !r.Done() {
		return nil, errors.New("l1hh: trailing junk after the pool checkpoint")
	}
	ps, err := resolvePoolOptions(popts)
	if err != nil {
		return nil, err
	}
	p := &Pool{defaults: ps.defaults, timings: ps.timings}
	p.overrides.m = make(map[string][]Option)
	inner, err := pool.Restore(mblob, p.poolConfig(ps))
	if err != nil {
		return nil, err
	}
	p.inner = inner
	p.items.Store(items)
	return p, nil
}
