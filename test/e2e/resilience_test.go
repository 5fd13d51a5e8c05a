// Package e2e holds the resilience suite: black-box tests that build
// the real hhd binary, stream to it through pkg/hhclient, kill it
// mid-stream, and verify the checkpoint coordinator's durability story
// (DESIGN.md §12) — the (ε,ϕ) guarantee holds over the acknowledged
// prefix after a crash-restart, for the single engine and for every
// tenant of a -tenants daemon.
package e2e

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	l1hh "repro"
	"repro/internal/ckpt"
	"repro/pkg/hhclient"
)

// buildHHD compiles cmd/hhd once per test run into dir and returns the
// binary path.
func buildHHD(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hhd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/hhd")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building hhd: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // test/e2e → repo root
}

// freePort reserves an ephemeral port and immediately releases it for
// the daemon to bind.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// startHHD launches the daemon and waits for /healthz.
func startHHD(t *testing.T, bin string, port int, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-eps", "0.02", "-phi", "0.05",
		"-m", fmt.Sprint(1 << 20), "-seed", "9",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("hhd on port %d never became healthy", port)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// newStreamClient is the producer every leg streams through: small
// batches, a fast age flush and a few quick retries, so a killed daemon
// leaves a short unacknowledged tail.
func newStreamClient(t *testing.T, base string, seed int64, opts ...hhclient.Option) *hhclient.Client {
	t.Helper()
	c, err := hhclient.New(base, append([]hhclient.Option{
		hhclient.WithBatchSize(2048),
		hhclient.WithFlushInterval(10 * time.Millisecond),
		hhclient.WithQueueSize(1 << 18),
		hhclient.WithMaxRetries(4),
		hhclient.WithBackoff(5*time.Millisecond, 100*time.Millisecond),
		hhclient.WithSeed(seed),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// add enqueues it on c, waiting out a full queue.
func add(t *testing.T, c *hhclient.Client, it uint64) {
	t.Helper()
	for {
		err := c.Add(it)
		if err == nil {
			return
		}
		if err != hhclient.ErrQueueFull {
			t.Fatalf("Add: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// snapshotLen decodes the newest valid snapshot in dir and returns the
// item count it covers (0 when no valid snapshot exists yet).
func snapshotLen(t *testing.T, dir string) uint64 {
	t.Helper()
	sink, err := ckpt.NewDiskSink(dir, 1<<20) // read-only use; retain is irrelevant
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := sink.LoadNewest()
	if err != nil || payload == nil {
		return 0
	}
	eng, err := l1hh.Unmarshal(payload)
	if err != nil {
		return 0 // snapshot of a mid-write frame never validates; be patient
	}
	defer eng.Close()
	return eng.Len()
}

// TestResilienceKillRestart is the crash-recovery story end to end:
//
//  1. stream a zipf prefix through pkg/hhclient and flush — every item
//     acknowledged;
//  2. wait until the checkpoint coordinator has a snapshot covering
//     that acknowledged prefix;
//  3. keep streaming and SIGKILL the daemon mid-stream;
//  4. restart from the same -checkpoint-dir;
//  5. assert nothing verified-durable was lost and the (ε,ϕ) guarantee
//     holds over the restored prefix of acknowledged items.
func TestResilienceKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience e2e builds and kills real processes; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildHHD(t, dir)
	ckptDir := filepath.Join(dir, "snaps")
	port := freePort(t)
	proc := startHHD(t, bin, port, "-shards", "2",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "100ms", "-checkpoint-retain", "4")
	killed := false
	defer func() {
		if !killed {
			proc.Process.Kill()
			proc.Wait()
		}
	}()

	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	client := newStreamClient(t, base, 3)

	// Phase 1: acknowledged prefix. enqueued records the exact order, so
	// ground truth over any prefix is computable after the fact.
	const phase1, phase2 = 150_000, 100_000
	zipf := l1hh.NewZipfStream(5, 1<<20, 1.3)
	enqueued := make([]uint64, 0, phase1+phase2)
	push := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			it := zipf.Next()
			add(t, client, it)
			enqueued = append(enqueued, it)
		}
	}
	push(phase1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := client.Flush(ctx); err != nil {
		t.Fatalf("phase-1 flush: %v", err)
	}
	st1 := client.Stats()
	if st1.Dropped != 0 {
		t.Fatalf("phase 1 dropped %d items (last error: %v); the acked set is no longer a prefix", st1.Dropped, client.LastError())
	}
	a1 := st1.Acked
	if a1 != phase1 {
		t.Fatalf("phase-1 acked %d of %d", a1, phase1)
	}

	// Wait for a snapshot that provably covers the acknowledged prefix.
	deadline := time.Now().Add(30 * time.Second)
	for snapshotLen(t, ckptDir) < a1 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint covering the %d acked items after 30s", a1)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Phase 2: kill mid-stream, while the client still has work queued.
	push(phase2)
	time.Sleep(30 * time.Millisecond) // let some phase-2 batches land
	if err := proc.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	proc.Wait()
	killed = true

	// Quiesce the client: remaining batches retry against a dead server
	// and drop; Acked stops moving and names the acknowledged prefix.
	closeCtx, closeCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer closeCancel()
	client.Close(closeCtx)
	stKill := client.Stats()
	aKill := stKill.Acked
	if aKill < a1 {
		t.Fatalf("acked went backwards: %d then %d", a1, aKill)
	}
	if got := stKill.Acked + stKill.Dropped; got != stKill.Enqueued {
		t.Fatalf("client accounting leak: acked %d + dropped %d != enqueued %d",
			stKill.Acked, stKill.Dropped, stKill.Enqueued)
	}

	// Restart from the coordinator's directory.
	port2 := freePort(t)
	proc2 := startHHD(t, bin, port2, "-shards", "2",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "100ms", "-checkpoint-retain", "4")
	defer func() {
		proc2.Process.Kill()
		proc2.Wait()
	}()
	base2 := fmt.Sprintf("http://127.0.0.1:%d", port2)
	client2, err := hhclient.New(base2, hhclient.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close(context.Background())

	rep, err := client2.Report(ctx)
	if err != nil {
		t.Fatalf("report after restart: %v", err)
	}
	restored := rep.Len

	checkRestored(t, "", rep, enqueued, a1, stKill)

	// The restarted daemon keeps serving: new items land on top of the
	// restored state.
	if err := client2.Add(12345); err != nil {
		t.Fatal(err)
	}
	if err := client2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	rep2, err := client2.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Len != restored+1 {
		t.Fatalf("post-restart ingest: Len %d, want %d", rep2.Len, restored+1)
	}
}

// checkRestored asserts a post-restart report against the stream one
// client sent: the restart answers for at least the a1 items a verified
// snapshot covered, for no more than the client ever sent, and with the
// (ε,ϕ) guarantee over that restored prefix. label names the stream in
// failures.
func checkRestored(t *testing.T, label string, rep *hhclient.Report, enqueued []uint64, a1 uint64, stKill hhclient.Stats) {
	t.Helper()
	restored := rep.Len

	// Durability: the snapshot we verified before the kill covered a1
	// acknowledged items, so the restart must answer for at least them.
	if restored < a1 {
		t.Fatalf("%srestored stream length %d < %d verified-durable acked items", label, restored, a1)
	}
	if restored > stKill.Enqueued+stKill.RetriedItems {
		t.Fatalf("%srestored length %d exceeds everything the client ever sent (%d + %d retried)",
			label, restored, stKill.Enqueued, stKill.RetriedItems)
	}

	// (ε,ϕ) over the restored prefix. The daemon applied batches in send
	// order, so its state is enqueued[:restored] up to two fudge terms:
	// one client batch may be half-applied at the kill (≤ 2048 items)
	// and retried batches may be duplicated (≤ RetriedItems).
	slack := float64(2048 + stKill.RetriedItems)
	if restored > uint64(len(enqueued)) {
		t.Fatalf("%srestored %d items but only %d were enqueued", label, restored, len(enqueued))
	}
	truth := make(map[uint64]uint64)
	for _, it := range enqueued[:restored] {
		truth[it]++
	}
	reported := make(map[uint64]float64, len(rep.HeavyHitters))
	for _, h := range rep.HeavyHitters {
		reported[h.Item] = h.Estimate
	}
	L := float64(restored)
	for it, cnt := range truth {
		if float64(cnt) >= (rep.Phi+rep.Eps)*L+slack {
			if _, ok := reported[it]; !ok {
				t.Errorf("%sitem %d has true count %d ≥ (ϕ+ε)·L+slack but is missing from the post-restart report", label, it, cnt)
			}
		}
	}
	for it, est := range reported {
		diff := est - float64(truth[it])
		if diff < 0 {
			diff = -diff
		}
		if diff > rep.Eps*L+slack {
			t.Errorf("%sitem %d estimate %.0f vs true %d: off by more than ε·L+slack = %.0f",
				label, it, est, truth[it], rep.Eps*L+slack)
		}
	}
}

// poolSnapshotLens decodes the newest valid pool snapshot in dir and
// returns the item count it covers for each tenant (nil when no valid
// snapshot exists yet).
func poolSnapshotLens(t *testing.T, dir string, tenants []string) map[string]uint64 {
	t.Helper()
	sink, err := ckpt.NewDiskSink(dir, 1<<20) // read-only use; retain is irrelevant
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := sink.LoadNewest()
	if err != nil || payload == nil {
		return nil
	}
	// The defaults only govern tenants the snapshot does not know.
	p, err := l1hh.UnmarshalPool(payload, l1hh.WithTenantDefaults(l1hh.WithEps(0.02), l1hh.WithPhi(0.05)))
	if err != nil {
		return nil
	}
	defer p.Close()
	lens := make(map[string]uint64, len(tenants))
	for _, tenant := range tenants {
		if st, err := p.TenantStats(tenant); err == nil {
			lens[tenant] = st.Len
		}
	}
	return lens
}

// TestResilienceTenantsKillRestart is the crash-recovery story for a
// multi-tenant daemon: a real hhd -tenants -checkpoint-dir fed through
// hhclient.WithTenant for three tenants, SIGKILLed mid-stream, then
// restarted from the same directory. Every tenant's report must pass
// its (ε,ϕ) check over the items acknowledged before the last verified
// snapshot, and the restarted daemon serves no root engine routes.
func TestResilienceTenantsKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience e2e builds and kills real processes; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildHHD(t, dir)
	ckptDir := filepath.Join(dir, "snaps")
	tenantArgs := []string{"-tenants",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "100ms", "-checkpoint-retain", "4"}
	port := freePort(t)
	proc := startHHD(t, bin, port, tenantArgs...)
	killed := false
	defer func() {
		if !killed {
			proc.Process.Kill()
			proc.Wait()
		}
	}()

	tenants := []string{"alice", "bob", "carol"}
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	clients := make([]*hhclient.Client, len(tenants))
	for i, tenant := range tenants {
		clients[i] = newStreamClient(t, base, int64(3+i), hhclient.WithTenant(tenant))
	}

	// Each tenant gets its own Zipf stream; enqueued records the exact
	// per-tenant order, so ground truth over any prefix is computable.
	const phase1, phase2 = 60_000, 40_000
	streams := make([]l1hh.StreamGenerator, len(tenants))
	enqueued := make([][]uint64, len(tenants))
	for i := range tenants {
		streams[i] = l1hh.NewZipfStream(uint64(11+i), 1<<20, 1.3)
	}
	push := func(n int) {
		t.Helper()
		for i, c := range clients {
			for j := 0; j < n; j++ {
				it := streams[i].Next()
				add(t, c, it)
				enqueued[i] = append(enqueued[i], it)
			}
		}
	}
	push(phase1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	a1 := make(map[string]uint64, len(tenants))
	for i, c := range clients {
		if err := c.Flush(ctx); err != nil {
			t.Fatalf("%s phase-1 flush: %v", tenants[i], err)
		}
		st := c.Stats()
		if st.Dropped != 0 || st.Acked != phase1 {
			t.Fatalf("%s phase 1: acked %d of %d, dropped %d (last error: %v)",
				tenants[i], st.Acked, phase1, st.Dropped, c.LastError())
		}
		a1[tenants[i]] = st.Acked
	}

	// Wait for a pool snapshot that provably covers every tenant's
	// acknowledged prefix.
	deadline := time.Now().Add(30 * time.Second)
	for {
		lens := poolSnapshotLens(t, ckptDir, tenants)
		covered := lens != nil
		for _, tenant := range tenants {
			covered = covered && lens[tenant] >= a1[tenant]
		}
		if covered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no pool checkpoint covering the acked prefixes %v after 30s (newest covers %v)", a1, lens)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Phase 2: kill mid-stream, while the clients still have work queued.
	push(phase2)
	time.Sleep(30 * time.Millisecond) // let some phase-2 batches land
	if err := proc.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	proc.Wait()
	killed = true

	// Quiesce the clients: remaining batches retry against a dead server
	// and drop; Acked stops moving and names each acknowledged prefix.
	closeCtx, closeCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer closeCancel()
	stKill := make([]hhclient.Stats, len(tenants))
	for i, c := range clients {
		c.Close(closeCtx)
		stKill[i] = c.Stats()
		if got := stKill[i].Acked + stKill[i].Dropped; got != stKill[i].Enqueued {
			t.Fatalf("%s client accounting leak: acked %d + dropped %d != enqueued %d",
				tenants[i], stKill[i].Acked, stKill[i].Dropped, stKill[i].Enqueued)
		}
	}

	// Restart from the coordinator's directory.
	port2 := freePort(t)
	proc2 := startHHD(t, bin, port2, tenantArgs...)
	defer func() {
		proc2.Process.Kill()
		proc2.Wait()
	}()
	base2 := fmt.Sprintf("http://127.0.0.1:%d", port2)
	for i, tenant := range tenants {
		c, err := hhclient.New(base2, hhclient.WithTenant(tenant), hhclient.WithSeed(int64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Report(ctx)
		c.Close(context.Background())
		if err != nil {
			t.Fatalf("%s report after restart: %v", tenant, err)
		}
		checkRestored(t, tenant+": ", rep, enqueued[i], a1[tenant], stKill[i])
	}

	// Tenant mode builds no default engine: the root routes are gone.
	resp, err := http.Post(base2+"/ingest", "application/x-ndjson", strings.NewReader("1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("root /ingest on a restarted -tenants daemon: status %d, want 404", resp.StatusCode)
	}
}

// TestStartupFlags: the real binary refuses, at startup, the flags that
// only configure the default engine when -tenants builds none, and
// rejects -checkpoint and -raw-shard-windows as undefined flags.
func TestStartupFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real hhd binary; skipped in -short")
	}
	bin := buildHHD(t, t.TempDir())
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-tenants", "-shards", "2"}, "-shards does not apply with -tenants"},
		{[]string{"-tenants", "-queue-depth", "8"}, "-queue-depth does not apply with -tenants"},
		{[]string{"-tenants", "-max-batch", "64"}, "-max-batch does not apply with -tenants"},
		{[]string{"-checkpoint", "x"}, "flag provided but not defined: -checkpoint"},
		{[]string{"-raw-shard-windows"}, "flag provided but not defined: -raw-shard-windows"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", freePort(t))}, c.args...)
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Stderr = &out
		err := cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		if err == nil || timedOut || !strings.Contains(out.String(), c.want) {
			t.Errorf("hhd %v: err %v (timed out: %v); want a startup refusal containing %q; stderr:\n%s",
				c.args, err, timedOut, c.want, out.String())
		}
	}
}
