package pool

// store.go — where evicted tenants live. A Store holds one framed
// checkpoint per tenant (the ckpt self-validating frame, so a torn
// write is detected at revive, not loaded into an engine). MemStore is
// the in-process store for tests and single-process deployments;
// DiskStore persists each tenant under its own file in a namespace
// directory with the same atomic publish discipline as ckpt.DiskSink.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/ckpt"
)

// Store is where the pool spills evicted tenants. Put must be durable
// (to the store's own standard) before it returns: the pool closes the
// engine immediately after a successful Put, so a lying store loses the
// tenant. Get reports ok=false for tenants the store has never seen —
// that is a normal miss, not an error.
//
// Implementations must be safe for concurrent use; the pool calls them
// from eviction and revive paths in parallel (always for distinct
// tenants — per-tenant calls are serialized by the pool).
type Store interface {
	// Put stores the framed checkpoint for tenant, replacing any
	// previous frame.
	Put(tenant string, frame []byte) error
	// Get returns the stored frame for tenant; ok=false when the store
	// holds nothing for it.
	Get(tenant string) (frame []byte, ok bool, err error)
	// Delete drops the stored frame for tenant; deleting an absent
	// tenant is not an error.
	Delete(tenant string) error
}

// MemStore is the in-memory Store: a map under a mutex, with a write
// error injection knob for eviction-failure tests.
type MemStore struct {
	mu     sync.Mutex
	frames map[string][]byte
	// FailPut, when non-nil, is returned by every Put call — the
	// spill-failure injection knob.
	FailPut error
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{frames: make(map[string][]byte)} }

// Put implements Store, copying the frame so the caller may reuse its
// buffer.
func (m *MemStore) Put(tenant string, frame []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.FailPut != nil {
		return m.FailPut
	}
	m.frames[tenant] = append([]byte(nil), frame...)
	return nil
}

// Get implements Store.
func (m *MemStore) Get(tenant string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.frames[tenant]
	return f, ok, nil
}

// Delete implements Store.
func (m *MemStore) Delete(tenant string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.frames, tenant)
	return nil
}

// Len reports how many tenants the store holds.
func (m *MemStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.frames)
}

// DiskStore persists one file per tenant inside dir. Tenant names are
// arbitrary byte strings, so the file name is the hex encoding of the
// name (prefix "t-"); names whose hex form would exceed the portable
// filename budget fall back to a SHA-256 digest (prefix "h-") — the
// digest only has to be collision-free, not reversible, because the
// pool's manifest carries the real names. Writes are atomic
// (ckpt.WriteFileAtomic: tmp file, fsync, rename, directory fsync) — a
// crash or power cut mid-spill leaves either the old frame or none,
// never a torn one (and a torn rename survivor still fails the ckpt
// frame checksum at revive).
type DiskStore struct {
	dir string
}

// maxHexName bounds the hex-encoded tenant part of a spill file name;
// beyond it the digest form is used. 200 keeps the whole name under
// every common filesystem's 255-byte limit.
const maxHexName = 200

// NewDiskStore opens (creating if needed) a disk store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pool: spill dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// path maps a tenant name to its spill file.
func (d *DiskStore) path(tenant string) string {
	h := hex.EncodeToString([]byte(tenant))
	if len(h) > maxHexName {
		sum := sha256.Sum256([]byte(tenant))
		return filepath.Join(d.dir, "h-"+hex.EncodeToString(sum[:])+".spill")
	}
	return filepath.Join(d.dir, "t-"+h+".spill")
}

// Put implements Store: the frame is durable, rename included, when it
// returns.
func (d *DiskStore) Put(tenant string, frame []byte) error {
	return ckpt.WriteFileAtomic(d.path(tenant), frame)
}

// Get implements Store; a missing file is a normal miss.
func (d *DiskStore) Get(tenant string) ([]byte, bool, error) {
	b, err := os.ReadFile(d.path(tenant))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	return b, true, nil
}

// Delete implements Store; deleting an absent tenant is not an error.
func (d *DiskStore) Delete(tenant string) error {
	err := os.Remove(d.path(tenant))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
