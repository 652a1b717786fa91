package campaign

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"overlapsim/internal/serve"
	"overlapsim/internal/sweep"
)

// TestClientRefusesOldProtocol: a worker refuses a coordinator whose spec
// speaks protocol 1, whose completions carried the work counters under
// other keys.
func TestClientRefusesOldProtocol(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, SpecJSON{Version: 1, Signature: testSig, Total: 10, ChunkPoints: 4, Chunks: 3})
	}))
	defer ts.Close()
	cl := &Client{Base: ts.URL, Worker: "w1", Retry: serve.Retry{Attempts: 1}}
	if _, err := cl.Spec(context.Background()); err == nil || !strings.Contains(err.Error(), "speaks protocol 1") {
		t.Fatalf("Spec against a protocol-1 coordinator: err %v, want a protocol refusal", err)
	}
}

// TestCompleteWorkRoundTrip: every work counter a worker reports through
// Client.Complete reads back unchanged from the coordinator, and
// /campaign/status carries it under serve's work keys.
func TestCompleteWorkRoundTrip(t *testing.T) {
	cfg := testConfig(t, NewFakeClock(time.Unix(1000, 0)))
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(c, nil).Handler())
	defer ts.Close()

	l, _, err := c.Lease("w1")
	if err != nil || l == nil {
		t.Fatalf("Lease: %v %v", l, err)
	}
	work := sweep.Counters{
		Traces: 1, TraceCacheHits: 2, Replays: 3, ReplayMemoHits: 4, ReplayStoreHits: 5,
		BatchedReplays: 6, ParallelWindows: 7, PredictedPoints: 8, SpotCheckReplays: 9, DemotedFamilies: 10,
	}
	cl := &Client{Base: ts.URL, Worker: "w1", Retry: serve.Retry{Attempts: 1}}
	if err := cl.Complete(context.Background(), l.Chunk, work, envelope(t, cfg, l.Chunk)); err != nil {
		t.Fatal(err)
	}
	if got := c.Counters().Work; got != work {
		t.Fatalf("coordinator work %+v, want %+v", got, work)
	}

	resp, err := http.Get(ts.URL + "/campaign/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Counters struct {
			Done int                        `json:"done"`
			Work map[string]json.RawMessage `json:"work"`
		} `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Counters.Done != 1 {
		t.Errorf("status done = %d, want 1", st.Counters.Done)
	}
	for _, key := range []string{"traces", "trace_cache_hits", "replays", "replay_memo_hits", "replay_store_hits", "parallel_windows", "predicted_points", "spot_check_replays", "demoted_families"} {
		if _, ok := st.Counters.Work[key]; !ok {
			t.Errorf("status work lacks %q: %v", key, st.Counters.Work)
		}
	}
}
