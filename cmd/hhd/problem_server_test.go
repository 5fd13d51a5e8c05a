package main

// Tests for the daemon's problem mode (-problem): the /vote, /winner,
// /extremes and /point endpoints, the wrong-currency and
// wrong-capability error contracts, the single-owner serialization
// around checkpoints, and the restore capability-kind gate.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	l1hh "repro"
)

// problemSpecFor mirrors main.go's problemOptions for tests.
func problemSpecFor(problem l1hh.Problem, m uint64) engineSpec {
	opts := []l1hh.Option{
		l1hh.WithProblem(problem), l1hh.WithEps(0.05),
		l1hh.WithDelta(0.05), l1hh.WithSeed(7), l1hh.WithStreamLength(m),
	}
	switch problem {
	case l1hh.BordaProblem, l1hh.MaximinProblem:
		opts = append(opts, l1hh.WithPhi(0.2), l1hh.WithCandidates(4))
	default:
		opts = append(opts, l1hh.WithUniverse(64))
	}
	return engineSpec{build: opts, problem: problem, m: m}
}

func newProblemServer(t *testing.T, problem l1hh.Problem) *server {
	t.Helper()
	s, err := newServer(problemSpecFor(problem, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.engine().Close() })
	return s
}

func TestVoteAndWinner(t *testing.T) {
	s := newProblemServer(t, l1hh.BordaProblem)

	// Mixed ballot forms: bare arrays and counted objects.
	body := strings.Repeat("[2,0,1,3]\n", 30) + `{"ranking":[2,1,0,3],"count":15}` + "\n"
	w := do(t, s, "POST", "/vote", "application/x-ndjson", []byte(body))
	if w.Code != http.StatusOK {
		t.Fatalf("vote status %d: %s", w.Code, w.Body)
	}
	var acc struct {
		Accepted uint64 `json:"accepted"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Accepted != 45 {
		t.Fatalf("accepted = %d, want 45", acc.Accepted)
	}

	w = do(t, s, "GET", "/winner", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("winner status %d: %s", w.Code, w.Body)
	}
	var win winnerResponse
	if err := json.Unmarshal(w.Body.Bytes(), &win); err != nil {
		t.Fatal(err)
	}
	if win.Candidate != 2 {
		t.Fatalf("winner = %d, want the unanimous 2", win.Candidate)
	}
	if win.Ballots != 45 || win.Candidates != 4 {
		t.Fatalf("winner meta = %+v", win)
	}
	if len(win.Scores) != 4 {
		t.Fatalf("scores = %v, want 4 entries", win.Scores)
	}

	// The ballot counter feeds the metrics.
	if got := s.obs.votes.Value(); got != 45 {
		t.Fatalf("votesTotal = %d, want 45", got)
	}
}

func TestVoteErrors(t *testing.T) {
	s := newProblemServer(t, l1hh.BordaProblem)

	// A malformed line reports the accepted prefix.
	w := do(t, s, "POST", "/vote", "", []byte("[1,0,2,3]\n[0,0,1,2]\n"))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad ballot status %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "1 ballots") {
		t.Fatalf("error body %q does not report the accepted prefix", w.Body)
	}

	// /vote against an items engine redirects with 409.
	hs := newTestServer(t, 10_000)
	w = do(t, hs, "POST", "/vote", "", []byte("[0,1]\n"))
	if w.Code != http.StatusConflict {
		t.Fatalf("vote on heavy-hitters engine: status %d, want 409", w.Code)
	}

	// /ingest against a voting engine redirects too.
	w = do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody([]uint64{1, 2, 3}))
	if w.Code != http.StatusConflict {
		t.Fatalf("ingest on voting engine: status %d, want 409: %s", w.Code, w.Body)
	}
}

func TestExtremesAndPoint(t *testing.T) {
	s := newProblemServer(t, l1hh.MaxFrequencyProblem)
	items := make([]uint64, 0, 3000)
	for i := 0; i < 3000; i++ {
		if i%3 == 0 {
			items = append(items, 9)
		} else {
			items = append(items, uint64(i%32))
		}
	}
	w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(items))
	if w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, w.Body)
	}

	w = do(t, s, "GET", "/extremes", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("extremes status %d: %s", w.Code, w.Body)
	}
	var ex extremesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Kind != "max-frequency" || ex.Item != 9 {
		t.Fatalf("extremes = %+v, want the planted max item 9", ex)
	}

	// /winner has no meaning on an extremes engine.
	w = do(t, s, "GET", "/winner", "", nil)
	if w.Code != http.StatusConflict {
		t.Fatalf("winner on extremes engine: status %d, want 409", w.Code)
	}

	// /point answers on heavy-hitters engines…
	hs := newTestServer(t, 100_000)
	stream := plantedStream(100_000)
	if w := do(t, hs, "POST", "/ingest", "application/octet-stream", binaryBody(stream)); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d", w.Code)
	}
	w = do(t, hs, "GET", "/point?item=0", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("point status %d: %s", w.Code, w.Body)
	}
	var pt pointResponse
	if err := json.Unmarshal(w.Body.Bytes(), &pt); err != nil {
		t.Fatal(err)
	}
	if pt.Estimate <= 0 || pt.Item != 0 {
		t.Fatalf("point = %+v, want a positive estimate for the planted item", pt)
	}
	// …rejects a missing item…
	if w := do(t, hs, "GET", "/point", "", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("point without ?item=: status %d, want 400", w.Code)
	}
	// …and extremes engines do not answer it.
	if w := do(t, s, "GET", "/point?item=9", "", nil); w.Code != http.StatusConflict {
		t.Fatalf("point on extremes engine: status %d, want 409", w.Code)
	}
}

// TestProblemCheckpointRestore: a voting engine checkpoints through
// /checkpoint and restores through /restore; a heavy-hitters blob is
// refused with the capability-kind mismatch.
func TestProblemCheckpointRestore(t *testing.T) {
	s := newProblemServer(t, l1hh.MaximinProblem)
	if w := do(t, s, "POST", "/vote", "", []byte(strings.Repeat("[3,1,0,2]\n", 20))); w.Code != http.StatusOK {
		t.Fatalf("vote: %d", w.Code)
	}
	w := do(t, s, "POST", "/checkpoint", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("checkpoint status %d", w.Code)
	}
	blob := w.Body.Bytes()

	s2 := newProblemServer(t, l1hh.MaximinProblem)
	if w := do(t, s2, "POST", "/restore", "application/octet-stream", blob); w.Code != http.StatusOK {
		t.Fatalf("restore status %d: %s", w.Code, w.Body)
	}
	w = do(t, s2, "GET", "/winner", "", nil)
	var win winnerResponse
	if err := json.Unmarshal(w.Body.Bytes(), &win); err != nil {
		t.Fatal(err)
	}
	if win.Candidate != 3 || win.Ballots != 20 {
		t.Fatalf("restored winner = %+v, want candidate 3 over 20 ballots", win)
	}

	// A heavy-hitters checkpoint does not restore into a voting server.
	hs := newTestServer(t, 10_000)
	if w := do(t, hs, "POST", "/ingest", "application/octet-stream", binaryBody([]uint64{1, 2, 3})); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d", w.Code)
	}
	hw := do(t, hs, "POST", "/checkpoint", "", nil)
	if w := do(t, s2, "POST", "/restore", "application/octet-stream", hw.Body.Bytes()); w.Code != http.StatusBadRequest {
		t.Fatalf("cross-family restore: status %d, want 400: %s", w.Code, w.Body)
	}
}

// TestTenantProblemRoutes: the /t/{tenant} twins of the problem
// endpoints, on a pool whose defaults carry a voting problem.
func TestTenantProblemRoutes(t *testing.T) {
	spec := problemSpecFor(l1hh.BordaProblem, 10_000)
	s := newTestTenantServer(t, spec, l1hh.WithTenantDefaults(spec.build...))

	for i := 0; i < 3; i++ {
		if w := do(t, s, "POST", "/t/team"+fmt.Sprint(i)+"/vote", "", []byte("[1,0,2,3]\n")); w.Code != http.StatusOK {
			t.Fatalf("tenant vote status %d: %s", w.Code, w.Body)
		}
	}
	w := do(t, s, "GET", "/t/team1/winner", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("tenant winner status %d: %s", w.Code, w.Body)
	}
	var win winnerResponse
	if err := json.Unmarshal(w.Body.Bytes(), &win); err != nil {
		t.Fatal(err)
	}
	if win.Candidate != 1 {
		t.Fatalf("tenant winner = %d, want 1", win.Candidate)
	}
	// Unknown tenants are never created by a read.
	if w := do(t, s, "GET", "/t/ghost/winner", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant winner: status %d, want 404", w.Code)
	}
}
