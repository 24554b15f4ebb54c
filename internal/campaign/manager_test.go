package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// memCheckpointer is an in-memory Checkpointer for manager tests.
type memCheckpointer struct {
	mu   sync.Mutex
	data map[string][]byte
}

func newMemCheckpointer() *memCheckpointer {
	return &memCheckpointer{data: make(map[string][]byte)}
}

func (m *memCheckpointer) Put(id string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[id] = append([]byte(nil), data...)
	return nil
}

func (m *memCheckpointer) Get(id string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.data[id]
	return data, ok
}

func boundedSpec(rounds int) *Spec {
	s := testSpec()
	s.MaxRounds = rounds
	return s
}

func waitTerminal(t *testing.T, m *Manager, id string) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := m.Get(id)
		if !ok {
			t.Fatalf("campaign %s vanished", id)
		}
		if v.Status != CampaignRunning {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached a terminal state", id)
	return View{}
}

func TestManagerBoundedCampaign(t *testing.T) {
	ck := newMemCheckpointer()
	m := NewManager(ManagerOptions{Executor: &LocalExecutor{Parallel: 2}, Checkpointer: ck})
	view, created, err := m.Start(boundedSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if !created || view.Status != CampaignRunning {
		t.Fatalf("start: created=%v status=%s", created, view.Status)
	}

	// Restarting the same spec while running attaches, never forks.
	again, created, err := m.Start(boundedSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if created || again.ID != view.ID {
		t.Fatalf("resubmit forked: created=%v id=%s vs %s", created, again.ID, view.ID)
	}

	final := waitTerminal(t, m, view.ID)
	if final.Status != CampaignDone {
		t.Fatalf("status = %s (%s), want done", final.Status, final.Error)
	}
	if final.Rounds != 3 || final.Execs != int64(3*16) {
		t.Fatalf("rounds=%d execs=%d", final.Rounds, final.Execs)
	}
	if final.CorpusSize == 0 || final.CoverageSize == 0 {
		t.Fatalf("no coverage accumulated: %+v", final)
	}

	// The manager's result matches the serial reference run.
	ref := runRounds(t, boundedSpec(3), 3, 1)
	if final.CorpusDigest != ref.Corpus.Digest() {
		t.Fatal("manager corpus diverged from the serial reference")
	}

	// The final checkpoint captured the terminal state.
	data, ok := ck.Get(view.ID)
	if !ok {
		t.Fatal("no final checkpoint")
	}
	st, err := DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 3 || st.Corpus.Digest() != ref.Corpus.Digest() {
		t.Fatalf("checkpoint state: round=%d", st.Round)
	}

	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestManagerResumeFromCheckpoint simulates a server restart: a second
// manager sharing the checkpointer resumes the campaign and lands on the
// same final state as an uninterrupted run.
func TestManagerResumeFromCheckpoint(t *testing.T) {
	ck := newMemCheckpointer()
	m1 := NewManager(ManagerOptions{Executor: &LocalExecutor{Parallel: 2}, Checkpointer: ck})
	spec := boundedSpec(2)
	view, _, err := m1.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, view.ID)
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh manager, same checkpointer, continue to round 4.
	m2 := NewManager(ManagerOptions{Executor: &LocalExecutor{Parallel: 2}, Checkpointer: ck})
	// Resume relaunches the checkpointed campaign; it is already at its
	// MaxRounds bound, so it terminates immediately without re-running.
	resumed, err := m2.Resume(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ID != view.ID {
		t.Fatalf("resumed a different campaign: %s", resumed.ID)
	}
	final := waitTerminal(t, m2, view.ID)
	if final.Rounds != 2 {
		t.Fatalf("resumed campaign re-ran rounds: %d", final.Rounds)
	}

	// A longer campaign run entirely under the manager matches the serial
	// reference (TestCheckpointRoundTrip proves the state algebra; this
	// proves the manager wiring preserves it).
	longView, _, err := m2.Start(boundedSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	longFinal := waitTerminal(t, m2, longView.ID)
	ref := runRounds(t, boundedSpec(4), 4, 1)
	if longFinal.CorpusDigest != ref.Corpus.Digest() {
		t.Fatal("4-round managed campaign diverged from serial reference")
	}
	if err := m2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestManagerStopAndRestart(t *testing.T) {
	ck := newMemCheckpointer()
	m := NewManager(ManagerOptions{Executor: &LocalExecutor{Parallel: 2}, Checkpointer: ck})
	view, _, err := m.Start(testSpec()) // unbounded: runs until stopped
	if err != nil {
		t.Fatal(err)
	}
	// Let it make some progress, then stop it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, _ := m.Get(view.ID)
		if v.Rounds >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopped, ok := m.Stop(view.ID)
	if !ok {
		t.Fatal("Stop: unknown id")
	}
	if stopped.Status != CampaignStopped {
		t.Fatalf("status after stop = %s", stopped.Status)
	}
	if _, ok := ck.Get(view.ID); !ok {
		t.Fatal("stop did not checkpoint")
	}
	// Stop is idempotent on terminal campaigns.
	if again, ok := m.Stop(view.ID); !ok || again.Status != CampaignStopped {
		t.Fatalf("second stop: ok=%v status=%s", ok, again.Status)
	}
	// Start on the stopped campaign restarts it from its state.
	restarted, created, err := m.Start(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if created || restarted.Status != CampaignRunning {
		t.Fatalf("restart: created=%v status=%s", created, restarted.Status)
	}
	if restarted.Rounds < stopped.Rounds {
		t.Fatalf("restart lost progress: %d < %d", restarted.Rounds, stopped.Rounds)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Start(testSpec()); err != ErrShuttingDown {
		t.Fatalf("Start after Shutdown: %v", err)
	}
}

func TestCampaignHTTP(t *testing.T) {
	m := NewManager(ManagerOptions{Executor: &LocalExecutor{Parallel: 2}, Checkpointer: newMemCheckpointer()})
	defer m.Shutdown(context.Background())
	mux := http.NewServeMux()
	RegisterRoutes(mux, m)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(body string) (*http.Response, View) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var v View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, v
	}

	spec := `{"alg":"group-update","n":2,"batchSize":8,"maxRounds":2}`
	resp, v := post(spec)
	if resp.StatusCode != http.StatusCreated || v.ID == "" {
		t.Fatalf("POST: %d %+v", resp.StatusCode, v)
	}
	if resp, _ := post(spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent POST: %d, want 200", resp.StatusCode)
	}
	if resp, _ := post(`{"alg":"bogus"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}
	if resp, _ := post(`{"stray":"field"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}
	if resp, _ := post(`{"alg":"` + strings.Repeat("a", maxSpecBytes) + `"}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: %d, want 413", resp.StatusCode)
	}
	if n := len(m.List()); n != 1 {
		t.Fatalf("%d campaigns after the oversized POST, want 1", n)
	}

	waitTerminal(t, m, v.ID)

	// List elides findings but shows the campaign.
	lresp, err := http.Get(srv.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Campaigns []View `json:"campaigns"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != v.ID {
		t.Fatalf("list = %+v", list)
	}

	gresp, err := http.Get(srv.URL + "/v1/campaigns/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got View
	if err := json.NewDecoder(gresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if got.Status != CampaignDone || got.Rounds != 2 {
		t.Fatalf("GET by id = %+v", got)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/campaigns/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}

	for _, path := range []string{"/v1/campaigns/deadbeef"} {
		gr, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		gr.Body.Close()
		if gr.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d", path, gr.StatusCode)
		}
	}
}
