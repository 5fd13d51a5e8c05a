package pool

// manifest.go — the pool's own checkpoint: a manifest of every
// serializable tenant (resident ones encoded in place, spilled ones
// copied from the store) that Restore turns back into a pool whose
// tenants are all spilled, reviving lazily on first touch. Each
// tenant's engine checkpoint travels inside its own ckpt frame, so a
// single flipped bit in one tenant is caught by that frame's CRC
// before an engine ever decodes it.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/wire"
)

// manifestVersion versions the manifest layout.
const manifestVersion = 1

// flagPinned marks a record whose tenant was pinned (serializable but
// never evicted at runtime); Restore preserves the classification.
const flagPinned = 1

// manifestRecord is one tenant in a pool checkpoint.
type manifestRecord struct {
	Tenant string
	Pinned bool
	Bits   int64  // model bits the engine held when encoded
	Frame  []byte // ckpt-framed engine checkpoint (validated on decode)
}

// manifest is the decoded form of a pool checkpoint.
type manifest struct {
	BudgetBits int64
	Records    []manifestRecord
}

// encodeManifest serializes m deterministically (records sorted by
// tenant name).
func encodeManifest(m manifest) []byte {
	recs := make([]manifestRecord, len(m.Records))
	copy(recs, m.Records)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Tenant < recs[j].Tenant })
	w := wire.NewWriter()
	w.U64(manifestVersion)
	w.I64(m.BudgetBits)
	w.U64(uint64(len(recs)))
	for _, r := range recs {
		w.Blob([]byte(r.Tenant))
		var flags uint64
		if r.Pinned {
			flags |= flagPinned
		}
		w.U64(flags)
		w.U64(uint64(r.Bits))
		w.Blob(r.Frame)
	}
	return w.Bytes()
}

// decodeManifest validates and decodes a pool checkpoint body. Every
// field a hostile or torn encoding could corrupt is checked before it
// is trusted: the record count against the remaining bytes, tenant
// names for emptiness, length and the encoder's strictly increasing
// order (which also rules out repeats), the flag set against the known
// flags, the bits field against int64 range, and every per-tenant
// frame against its own checksum. Accepting only the encoder's order
// keeps decode ∘ encode the identity on every manifest it accepts.
func decodeManifest(data []byte) (manifest, error) {
	var m manifest
	r := wire.NewReader(data)
	if v := r.U64(); r.Err() == nil && v != manifestVersion {
		return m, fmt.Errorf("pool: unsupported manifest version %d", v)
	}
	m.BudgetBits = r.I64()
	if r.Err() == nil && m.BudgetBits < 0 {
		return m, errors.New("pool: manifest carries a negative budget")
	}
	count := r.U64()
	if r.Err() != nil {
		return m, fmt.Errorf("pool: manifest: %w", r.Err())
	}
	// Each record costs at least 4 bytes (two varints and two empty
	// blob lengths); a declared count beyond that is corrupt — fail
	// before allocating.
	if count > uint64(len(data))/4+1 {
		return m, errors.New("pool: manifest record count exceeds the encoding size")
	}
	m.Records = make([]manifestRecord, 0, count)
	for i := uint64(0); i < count; i++ {
		name := string(r.Blob())
		flags := r.U64()
		bits := r.U64()
		frame := r.Blob()
		if err := r.Err(); err != nil {
			return m, fmt.Errorf("pool: manifest record %d: %w", i, err)
		}
		if name == "" || len(name) > MaxTenantName {
			return m, fmt.Errorf("pool: manifest record %d: invalid tenant name (%d bytes)", i, len(name))
		}
		if i > 0 && name <= m.Records[i-1].Tenant {
			return m, fmt.Errorf("pool: manifest repeats tenant %q or breaks its sorted order", name)
		}
		if flags&^uint64(flagPinned) != 0 {
			return m, fmt.Errorf("pool: manifest record %q carries unknown flags %#x", name, flags)
		}
		if bits > math.MaxInt64 {
			return m, fmt.Errorf("pool: manifest record %q: bits field overflows", name)
		}
		if _, err := ckpt.Decode(frame); err != nil {
			return m, fmt.Errorf("pool: manifest record %q: %w", name, err)
		}
		m.Records = append(m.Records, manifestRecord{
			Tenant: name,
			Pinned: flags&flagPinned != 0,
			Bits:   int64(bits),
			// Copy: Blob aliases the input, which the caller may reuse.
			Frame: append([]byte(nil), frame...),
		})
	}
	if !r.Done() {
		return m, errors.New("pool: trailing junk after the manifest")
	}
	return m, nil
}

// Snapshot serializes the pool: every serializable tenant — spillable
// and pinned, resident and spilled — as one manifest. Volatile tenants
// are omitted (they cannot serialize; a restart finds them empty).
// Per-tenant state is consistent (each engine is encoded under its
// semaphore) but the manifest is not a cross-tenant barrier: tenants
// touched while the snapshot walks encode either before or after the
// touch. Successfully encoded frames are cached per entry, so an
// untouched tenant costs nothing at the next Snapshot — that cache is
// the "dirty tenants only" part of checkpoint coordination.
//
// Snapshot still works after Close: the shutdown sequence is Close
// (drain engines) then Snapshot (final checkpoint).
func (p *Pool) Snapshot() ([]byte, error) {
	p.mu.Lock()
	budget := p.cfg.BudgetBits
	resident := make([]*entry, 0, len(p.res))
	known := make(map[string]bool, len(p.res)+len(p.spilled))
	for t, e := range p.res {
		resident = append(resident, e)
		known[t] = true
	}
	startSpill := make(map[string]spillRec, len(p.spilled))
	for t, rec := range p.spilled {
		startSpill[t] = rec
		known[t] = true
	}
	p.mu.Unlock()

	recs := make([]manifestRecord, 0, len(known))
	done := make(map[string]bool, len(known)) // encoded into recs
	skip := make(map[string]bool)             // volatile or stateless: nothing to encode
	var firstErr error

	// addStored copies a spilled tenant's frame out of the store,
	// reporting whether the tenant is settled. false means the frame was
	// missing or the spill record mid-transition — the tenant revived
	// concurrently; the revival sweep below re-resolves it through the
	// live maps instead of silently dropping it.
	addStored := func(tenant string) bool {
		if done[tenant] || skip[tenant] {
			return true
		}
		if p.cfg.Store == nil {
			skip[tenant] = true
			return true
		}
		frame, ok, err := p.cfg.Store.Get(tenant)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("pool: snapshot read of spilled %q: %w", tenant, err)
			}
			return true
		}
		if !ok {
			return false
		}
		p.mu.Lock()
		rec, haveRec := p.spilled[tenant]
		p.mu.Unlock()
		if !haveRec {
			// Revived since the Get. The frame still encodes the
			// tenant's state as of its spill — a valid "before the
			// touch" snapshot — and a tenant's classification is stable
			// across spill cycles, so the listing-time record still
			// describes it.
			rec, haveRec = startSpill[tenant]
		}
		if !haveRec {
			// Evicted and revived again entirely within the walk; the
			// revival sweep resolves it through the resident map.
			return false
		}
		done[tenant] = true
		recs = append(recs, manifestRecord{
			Tenant: tenant,
			Pinned: rec.mode == Pinned,
			Bits:   rec.bits,
			Frame:  frame,
		})
		return true
	}

	// encodeResident serializes one resident entry under its semaphore,
	// reporting whether the tenant is settled (false: it moved to the
	// store mid-walk and its frame could not be copied yet).
	encodeResident := func(e *entry) bool {
		if done[e.tenant] || skip[e.tenant] {
			return true
		}
		e.sem <- struct{}{}
		if e.gone {
			// Evicted between the listing and here — its state is in
			// the store now.
			<-e.sem
			return addStored(e.tenant)
		}
		if e.mode == Volatile {
			<-e.sem
			skip[e.tenant] = true
			return true
		}
		frame := e.frame
		if frame == nil || e.mode == Pinned {
			// Pinned engines (time windows, sentinels) can change state
			// by wall clock alone — retirement runs on the next
			// operation — so a cached frame may be stale for them;
			// re-encode every snapshot.
			blob, err := e.eng.MarshalBinary()
			if err != nil {
				<-e.sem
				if firstErr == nil {
					firstErr = fmt.Errorf("pool: snapshot of %q: %w", e.tenant, err)
				}
				return true
			}
			frame = ckpt.Encode(blob)
			if e.mode != Pinned {
				e.frame = frame
			}
		}
		p.mu.Lock()
		bits := e.bits
		p.mu.Unlock()
		done[e.tenant] = true
		recs = append(recs, manifestRecord{
			Tenant: e.tenant,
			Pinned: e.mode == Pinned,
			Bits:   bits,
			Frame:  frame,
		})
		<-e.sem
		return true
	}

	for _, e := range resident {
		encodeResident(e)
	}
	for t := range startSpill {
		addStored(t)
	}

	// Revival sweep: the lists above were captured once, so a tenant
	// spilled at listing time but revived (store frame deleted) before
	// its addStored ran is in neither walk — it would vanish from the
	// manifest even though it holds live state. Re-read the live maps
	// and chase every known tenant that is not yet settled until none
	// are missed; each unsettled outcome requires another concurrent
	// spill/revive transition, so the sweep terminates as soon as the
	// tenant holds still.
	for firstErr == nil {
		p.mu.Lock()
		var missedRes []*entry
		var missedSpilled []string
		for t := range known {
			if done[t] || skip[t] {
				continue
			}
			if e, ok := p.res[t]; ok {
				missedRes = append(missedRes, e)
			} else if _, ok := p.spilled[t]; ok {
				missedSpilled = append(missedSpilled, t)
			} else {
				skip[t] = true // no state anywhere — nothing to save
			}
		}
		p.mu.Unlock()
		if len(missedRes)+len(missedSpilled) == 0 {
			break
		}
		progress := false
		for _, e := range missedRes {
			if encodeResident(e) {
				progress = true
			}
		}
		for _, t := range missedSpilled {
			if addStored(t) {
				progress = true
			}
		}
		if !progress {
			// A full pass resolved nothing. A spill record whose store
			// frame is gone and that has not become resident is not a
			// transient revival — the store lost the frame; there is
			// nothing left to save.
			p.mu.Lock()
			for _, t := range missedSpilled {
				if _, ok := p.res[t]; !ok {
					skip[t] = true
				}
			}
			p.mu.Unlock()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return encodeManifest(manifest{BudgetBits: budget, Records: recs}), nil
}

// Restore builds a pool from a Snapshot encoding: every manifest
// tenant starts spilled (its frame seeded into cfg.Store) and revives
// lazily on first touch, so a restart pays nothing for tenants that
// never come back. cfg provides the runtime wiring — Factory, Store,
// Restorer, Hooks — and may override the budget: cfg.BudgetBits > 0
// wins, 0 inherits the manifest's. cfg.Store and cfg.Restorer are
// required whenever the manifest carries tenants.
func Restore(data []byte, cfg Config) (*Pool, error) {
	m, err := decodeManifest(data)
	if err != nil {
		return nil, err
	}
	if cfg.BudgetBits == 0 {
		cfg.BudgetBits = m.BudgetBits
	}
	if len(m.Records) > 0 && cfg.Store == nil {
		return nil, errors.New("pool: restoring a non-empty manifest needs a spill Store")
	}
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for _, rec := range m.Records {
		if err := cfg.Store.Put(rec.Tenant, rec.Frame); err != nil {
			return nil, fmt.Errorf("pool: seeding spill store with %q: %w", rec.Tenant, err)
		}
		mode := Spillable
		if rec.Pinned {
			mode = Pinned
		}
		p.spilled[rec.Tenant] = spillRec{bits: rec.Bits, bytes: len(rec.Frame), mode: mode}
		p.spilledBytes += int64(len(rec.Frame))
	}
	return p, nil
}
