package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"overlapsim/internal/sweep"
)

// busyWork sets every live work counter to a distinct nonzero value.
// BatchedReplays stays 0: the runner never sets it.
var busyWork = sweep.Counters{
	Traces: 1, TraceCacheHits: 2, Replays: 3, ReplayMemoHits: 4, ReplayStoreHits: 5,
	ParallelWindows: 7, PredictedPoints: 8, SpotCheckReplays: 9, DemotedFamilies: 10,
}

// workBodies renders the documents that carry work counters, keyed by
// golden name: a terminal JobStatus and a GET /stats body, each once with
// every counter set (the job in approx mode) and once exact with zeros.
func workBodies(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, c := range []struct {
		name   string
		approx bool
		work   sweep.Counters
	}{
		{"busy-approx", true, busyWork},
		{"idle-exact", false, sweep.Counters{}},
	} {
		jb := &job{
			id:      "job-7",
			points:  8,
			format:  sweep.FormatCSV,
			approx:  approxSettings{enabled: c.approx},
			created: time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC),
		}
		jb.completed.Store(8)
		jb.finish(JobDone, "", c.work)
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, jb.Status())
		out["status-"+c.name] = rec.Body.Bytes()

		s := New(Config{})
		s.submitted, s.rejected, s.completed, s.failed, s.canceled = 6, 1, 3, 1, 1
		s.work = c.work
		s.start = time.Now()
		rec = httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		out["stats-"+c.name] = rec.Body.Bytes()
	}
	return out
}

// TestWorkGoldens pins the status and stats documents byte for byte
// against bodies recorded from the hand-copied WorkJSON the counters once
// went through, so the shared JSON keys, their order and the omitted
// fields stay as clients know them.
func TestWorkGoldens(t *testing.T) {
	for name, got := range workBodies(t) {
		want, err := os.ReadFile(filepath.Join("testdata", "work-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs from the golden:\n%s\n---\n%s", name, want, got)
		}
	}
}
