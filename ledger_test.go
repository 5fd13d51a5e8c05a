package l1hh

// The BENCH_ingest.json ledger: per-item cost of the ingest hot paths,
// committed so that a regression shows in review rather than in
// production. TestIngestLedger times the ledger's rows with
// testing.Benchmark, running the same functions as the matching
// BenchmarkShardedInsert rows, and holds the run to the snapshot;
// -update-golden rewrites the snapshot from the run instead:
//
//	go test -run '^TestIngestLedger$' -count=1 -cpu 1 -v .
//	go test -run '^TestIngestLedger$' -count=1 -cpu 1 -update-golden .
//
// Timings compare only between like runners, so ns/item is enforced only
// where the go version and GOMAXPROCS match the snapshot's; elsewhere a
// slower row is reported, not failed. The allocation bound holds on any
// runner. The gate is a Test because testing.Benchmark, called inside a
// benchmark, blocks on the testing package's benchmark lock.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

const ingestLedgerFile = "BENCH_ingest.json"

// ledgerTolerance is the largest ns/item rise over the snapshot that
// passes where the runner's key matches the snapshot's.
const ledgerTolerance = 0.15

// maxAllocsPerItem is the allocation budget per ingested item. The
// dispatch and decode paths are pooled, so steady-state allocations are
// amortized sketch-table growth only — a small fraction of an
// allocation per item. 0.01 allows that amortized tail while failing
// loudly on any real per-item or per-batch allocation (1/8192 ≈ 1e-4
// per pooled miss; a per-batch alloc at MaxBatch 4096 shows up as
// ≈ 2.4e-4, a per-item one as ≥ 1).
const maxAllocsPerItem = 0.01

// ingestLedgerRows are the ledger's rows, named as in the snapshot.
var ingestLedgerRows = []struct {
	name  string
	bench func(*testing.B)
}{
	{"serial/insert", benchIngestSerial},
	{"sharded/insert-batch/shards=1", benchIngestSharded(1)},
	{"sharded/insert-batch/shards=4", benchIngestSharded(4)},
}

// ingestLedger is the BENCH_ingest.json schema. Fields are append-only:
// tools diffing snapshots rely on existing keys.
type ingestLedger struct {
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GitSHA     string      `json:"git_sha"`
	Timestamp  string      `json:"timestamp"`
	Eps        float64     `json:"eps"`
	Phi        float64     `json:"phi"`
	Shards     []int       `json:"shards"`
	Results    []ledgerRow `json:"results"`
}

// ledgerRow is one measured hot path.
type ledgerRow struct {
	Name          string  `json:"name"`
	NsPerItem     float64 `json:"ns_per_item"`
	AllocsPerItem float64 `json:"allocs_per_item"`
	BytesPerItem  float64 `json:"bytes_per_item"`
	Items         int     `json:"items"` // items measured (benchmark N)
}

// ledgerKey is what makes two runs' timings comparable.
type ledgerKey struct {
	goVersion  string
	gomaxprocs int
}

// ledgerVerdict is the outcome of holding a run to the snapshot. Any
// failure fails the gate; warnings and notes are reported only.
type ledgerVerdict struct {
	fails []string
	warns []string
	notes []string
}

// compareLedger holds the fresh rows, measured on a runner with key, to
// the snapshot: a row more than ledgerTolerance slower fails where key
// matches the snapshot's and warns elsewhere; a row over
// maxAllocsPerItem fails under any key, as does a snapshot row the run
// lacks. A row the snapshot lacks is noted.
func compareLedger(snap ingestLedger, fresh []ledgerRow, key ledgerKey) ledgerVerdict {
	var v ledgerVerdict
	enforce := key == ledgerKey{snap.GoVersion, snap.GOMAXPROCS}
	if !enforce {
		v.notes = append(v.notes, fmt.Sprintf("snapshot key (%s, GOMAXPROCS=%d) differs from the runner's (%s, GOMAXPROCS=%d): ns/item is reported, not enforced",
			snap.GoVersion, snap.GOMAXPROCS, key.goVersion, key.gomaxprocs))
	}
	base := make(map[string]ledgerRow, len(snap.Results))
	for _, r := range snap.Results {
		base[r.Name] = r
	}
	seen := make(map[string]bool, len(fresh))
	for _, r := range fresh {
		seen[r.Name] = true
		if r.AllocsPerItem > maxAllocsPerItem {
			v.fails = append(v.fails, fmt.Sprintf("%s: %.4f allocs/item exceeds the %.2f budget: ingest is no longer allocation-free",
				r.Name, r.AllocsPerItem, maxAllocsPerItem))
		}
		old, ok := base[r.Name]
		if !ok {
			v.notes = append(v.notes, fmt.Sprintf("%s: new hot path, not in the snapshot", r.Name))
			continue
		}
		if delta := r.NsPerItem/old.NsPerItem - 1; delta > ledgerTolerance {
			msg := fmt.Sprintf("%s: %.1f ns/item is %+.1f%% over the snapshot's %.1f (tolerance %.0f%%)",
				r.Name, r.NsPerItem, 100*delta, old.NsPerItem, 100*ledgerTolerance)
			if enforce {
				v.fails = append(v.fails, msg)
			} else {
				v.warns = append(v.warns, msg)
			}
		}
	}
	for _, r := range snap.Results {
		if !seen[r.Name] {
			v.fails = append(v.fails, fmt.Sprintf("%s: in the snapshot but missing from the run", r.Name))
		}
	}
	return v
}

// TestIngestLedger is the ingest regression gate over BENCH_ingest.json.
func TestIngestLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("times each ledger row for about a second")
	}
	var snap ingestLedger
	blob, err := os.ReadFile(ingestLedgerFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("parsing %s: %v", ingestLedgerFile, err)
	}

	key := ledgerKey{runtime.Version(), runtime.GOMAXPROCS(0)}
	fresh := make([]ledgerRow, 0, len(ingestLedgerRows))
	for _, row := range ingestLedgerRows {
		r := testing.Benchmark(row.bench)
		if r.N == 0 {
			t.Fatalf("%s: the benchmark failed", row.name)
		}
		n := float64(r.N)
		fresh = append(fresh, ledgerRow{
			Name:          row.name,
			NsPerItem:     float64(r.T.Nanoseconds()) / n,
			AllocsPerItem: float64(r.MemAllocs) / n,
			BytesPerItem:  float64(r.MemBytes) / n,
			Items:         r.N,
		})
	}

	if *updateGolden {
		writeIngestLedger(t, key, fresh)
		return
	}

	t.Logf("%s (sha %.12s, %s, GOMAXPROCS=%d) against this run (%s, GOMAXPROCS=%d)",
		ingestLedgerFile, snap.GitSHA, snap.GoVersion, snap.GOMAXPROCS, key.goVersion, key.gomaxprocs)
	base := make(map[string]float64, len(snap.Results))
	for _, r := range snap.Results {
		base[r.Name] = r.NsPerItem
	}
	for _, r := range fresh {
		t.Logf("%-30s snapshot %7.1f  run %7.1f ns/item (%+6.1f%%)  %.5f allocs/item",
			r.Name, base[r.Name], r.NsPerItem, 100*(r.NsPerItem/base[r.Name]-1), r.AllocsPerItem)
	}
	v := compareLedger(snap, fresh, key)
	for _, n := range v.notes {
		t.Log(n)
	}
	for _, w := range v.warns {
		t.Log("WARNING: " + w)
	}
	for _, f := range v.fails {
		t.Error(f)
	}
}

// writeIngestLedger rewrites BENCH_ingest.json from the fresh rows.
func writeIngestLedger(t *testing.T, key ledgerKey, fresh []ledgerRow) {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	blob, err := json.MarshalIndent(ingestLedger{
		GoVersion:  key.goVersion,
		GOMAXPROCS: key.gomaxprocs,
		GitSHA:     sha,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Eps:        ingestEps,
		Phi:        ingestPhi,
		Shards:     []int{1, 4},
		Results:    fresh,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ingestLedgerFile, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d rows, %s, GOMAXPROCS=%d, sha %.12s)", ingestLedgerFile, len(fresh), key.goVersion, key.gomaxprocs, sha)
}

// TestLedgerVerdicts pins compareLedger's policy, one verdict per case.
func TestLedgerVerdicts(t *testing.T) {
	snap := ingestLedger{
		GoVersion: "go1.24.0", GOMAXPROCS: 1,
		Results: []ledgerRow{
			{Name: "serial/insert", NsPerItem: 100, AllocsPerItem: 0.0003},
			{Name: "sharded/insert-batch/shards=1", NsPerItem: 110, AllocsPerItem: 0.0003},
		},
	}
	same := ledgerKey{"go1.24.0", 1}
	// run returns the snapshot's rows with serial/insert's replaced.
	run := func(serial ledgerRow) []ledgerRow {
		return []ledgerRow{serial, snap.Results[1]}
	}
	serial := func(ns, allocs float64) ledgerRow {
		return ledgerRow{Name: "serial/insert", NsPerItem: ns, AllocsPerItem: allocs}
	}
	// A runner whose key differs gets one note saying so.
	for _, tc := range []struct {
		name                string
		fresh               []ledgerRow
		key                 ledgerKey
		fails, warns, notes int
	}{
		{name: "unchanged run passes", fresh: snap.Results, key: same},
		{name: "14% slower passes", fresh: run(serial(114, 0.0003)), key: same},
		{name: "16% slower fails where the key matches", fresh: run(serial(116, 0.0003)), key: same, fails: 1},
		{name: "16% slower warns under another go version", fresh: run(serial(116, 0.0003)),
			key: ledgerKey{"go1.25.1", 1}, warns: 1, notes: 1},
		{name: "16% slower warns under another GOMAXPROCS", fresh: run(serial(116, 0.0003)),
			key: ledgerKey{"go1.24.0", 2}, warns: 1, notes: 1},
		{name: "0.011 allocs/item fails where the key matches", fresh: run(serial(100, 0.011)), key: same, fails: 1},
		{name: "0.011 allocs/item fails under another key", fresh: run(serial(100, 0.011)),
			key: ledgerKey{"go1.25.1", 4}, fails: 1, notes: 1},
		{name: "snapshot row absent from the run fails", fresh: snap.Results[1:], key: same, fails: 1},
		{name: "row new in the run passes with a note",
			fresh: append(run(serial(100, 0.0003)), ledgerRow{Name: "sharded/insert-batch/shards=8", NsPerItem: 500}),
			key:   same, notes: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := compareLedger(snap, tc.fresh, tc.key)
			if len(v.fails) != tc.fails || len(v.warns) != tc.warns || len(v.notes) != tc.notes {
				t.Fatalf("fails %q, warns %q, notes %q; want %d fails, %d warns, %d notes",
					v.fails, v.warns, v.notes, tc.fails, tc.warns, tc.notes)
			}
		})
	}
}
