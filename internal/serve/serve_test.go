package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"overlapsim/internal/machine"
	"overlapsim/internal/sweep"
)

// testBody is the canonical request used across tests: a tiny grid cheap
// enough to trace for real.
const testBody = `{"apps":["pingpong"],"chunks":[2,4,8],"size":256,"iters":1,"format":"csv"}`

// testGrid mirrors testBody on the library side.
func testGrid() sweep.Grid {
	return sweep.Grid{Apps: []string{"pingpong"}, Chunks: []int{2, 4, 8}}
}

// batchCSV runs testGrid through the CLI's batch path: the reference
// bytes a served sweep must reproduce exactly.
func batchCSV(t *testing.T) []byte {
	t.Helper()
	r := sweep.NewRunner(machine.Default())
	r.Size = 256
	r.Iters = 1
	results, err := r.Run(testGrid())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sweep.Write(&buf, sweep.FormatCSV, results, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postSweep(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getStatus(t *testing.T, url, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /sweeps/%s: %s", id, resp.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeStreamMatchesBatchAndWarmRepeat is the service's core contract:
// a POSTed sweep streams a body byte-identical to the batch CLI output for
// the same grid, and an identical repeat request is answered entirely from
// the shared cache — zero instrumented runs, zero replays.
func TestServeStreamMatchesBatchAndWarmRepeat(t *testing.T) {
	dir := t.TempDir()
	results := filepath.Join(dir, "results")
	s := New(Config{CacheDir: filepath.Join(dir, "cache"), ResultsDir: results})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := batchCSV(t)

	for round, wantID := range []string{"job-1", "job-2"} {
		resp := postSweep(t, ts.URL, testBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: %s", round, resp.Status)
		}
		if got := resp.Header.Get("X-Overlapsim-Job"); got != wantID {
			t.Errorf("round %d: job header %q, want %q", round, got, wantID)
		}
		if got := resp.Header.Get("X-Overlapsim-Points"); got != "3" {
			t.Errorf("round %d: points header %q, want 3", round, got)
		}
		if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/csv") {
			t.Errorf("round %d: content type %q", round, got)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("round %d: streamed body differs from batch CLI output:\n%s\n--- want:\n%s", round, body, want)
		}
		if got := resp.Trailer.Get("X-Overlapsim-Status"); got != "ok" {
			t.Errorf("round %d: status trailer %q, want ok", round, got)
		}

		st := getStatus(t, ts.URL, wantID)
		if st.State != JobDone || st.Completed != 3 || st.Work == nil {
			t.Fatalf("round %d: status %+v", round, st)
		}
		if round == 1 {
			// The warm round: everything from the shared cache and store.
			if st.Work.Traces != 0 || st.Work.Replays != 0 {
				t.Errorf("warm repeat did work: %+v", *st.Work)
			}
			if st.Work.TraceCacheHits == 0 || st.Work.ReplayStoreHits == 0 {
				t.Errorf("warm repeat missed the cache: %+v", *st.Work)
			}
		}

		// The results-dir tee leg holds the same bytes the client got.
		saved, err := os.ReadFile(filepath.Join(results, wantID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, want) {
			t.Errorf("round %d: results-dir file differs from streamed body", round)
		}
	}

	// /stats aggregates both jobs' counters.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsJSON
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.Submitted != 2 || stats.Jobs.Completed != 2 || stats.Jobs.Rejected != 0 {
		t.Errorf("stats jobs: %+v", stats.Jobs)
	}
	if stats.Work.Traces == 0 || stats.Work.ReplayStoreHits == 0 {
		t.Errorf("stats work should mix the cold and warm rounds: %+v", stats.Work)
	}
}

// TestServeResultsFileFailureKeepsRequest: the results-dir file is
// best-effort. A file that cannot be written (here a full device) is
// logged once and abandoned; the client still gets the complete body and
// an ok verdict.
func TestServeResultsFileFailureKeepsRequest(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	results := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(results, "job-1.csv")); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	s := New(Config{ResultsDir: results, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSweep(t, ts.URL, testBody)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := batchCSV(t); !bytes.Equal(body, want) {
		t.Errorf("body with a failing results file:\n%s\n--- want:\n%s", body, want)
	}
	if got := resp.Trailer.Get("X-Overlapsim-Status"); got != "ok" {
		t.Errorf("status trailer %q (error %q), want ok", got, resp.Trailer.Get("X-Overlapsim-Error"))
	}
	if st := getStatus(t, ts.URL, "job-1"); st.State != JobDone || st.Completed != 3 {
		t.Errorf("status %+v, want done with 3 points", st)
	}
	mu.Lock()
	defer mu.Unlock()
	fileErrs := 0
	for _, line := range logs {
		if strings.Contains(line, "job-1.csv") && strings.Contains(line, "no space left on device") {
			fileErrs++
		}
	}
	if fileErrs != 1 {
		t.Errorf("%d log lines name the results-file error, want 1:\n%s", fileErrs, strings.Join(logs, "\n"))
	}
}

// panicWriter is a response writer whose first body write panics, as a
// broken encoder or connection write would; later writes succeed.
type panicWriter struct {
	*httptest.ResponseRecorder
	panicked bool
}

func (w *panicWriter) Write(p []byte) (int, error) {
	if !w.panicked {
		w.panicked = true
		panic("boom in body write")
	}
	return w.ResponseRecorder.Write(p)
}

// TestServeBodyWritePanicFailsJob: a body write that panics while the
// sink accepts a result fails that one job, with the panic in its status
// and its stack in the log, and the daemon answers the next request in
// full.
func TestServeBodyWritePanicFailsJob(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	s := New(Config{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	h := s.Handler()
	h.ServeHTTP(&panicWriter{ResponseRecorder: httptest.NewRecorder()},
		httptest.NewRequest(http.MethodPost, "/sweeps", strings.NewReader(testBody)))

	ts := httptest.NewServer(h)
	defer ts.Close()
	if st := getStatus(t, ts.URL, "job-1"); st.State != JobFailed || !strings.Contains(st.Error, "panic: boom in body write") {
		t.Errorf("job-1 status %+v, want failed with the panic", st)
	}
	resp := postSweep(t, ts.URL, testBody)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := batchCSV(t); !bytes.Equal(body, want) {
		t.Errorf("the request after the panic got:\n%s\n--- want:\n%s", body, want)
	}
	if got := resp.Trailer.Get("X-Overlapsim-Status"); got != "ok" {
		t.Errorf("status trailer %q (error %q), want ok", got, resp.Trailer.Get("X-Overlapsim-Error"))
	}
	mu.Lock()
	defer mu.Unlock()
	stacks := 0
	for _, line := range logs {
		if strings.HasPrefix(line, "job-1: sweep: emit job ") && strings.Contains(line, "goroutine") {
			stacks++
		}
	}
	if stacks != 1 {
		t.Errorf("%d log lines carry job-1's panic stack, want 1:\n%s", stacks, strings.Join(logs, "\n"))
	}
}

// TestServeListAndJSONFormat covers GET /sweeps and the non-default format.
func TestServeListAndJSONFormat(t *testing.T) {
	s := New(Config{CacheDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := strings.Replace(testBody, `"csv"`, `"json"`, 1)
	resp := postSweep(t, ts.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %s", resp.Status)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("content type %q", got)
	}
	var rows []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatalf("body is not a JSON array: %v", err)
	}
	if len(rows) != 3 {
		t.Errorf("got %d rows, want 3", len(rows))
	}

	lresp, err := http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "job-1" || list[0].Format != "json" {
		t.Errorf("list: %+v", list)
	}
}

// blockingHook returns a run hook that signals started and blocks until
// released or canceled — the deterministic stand-in for a long sweep.
func blockingHook(started chan<- string, release <-chan struct{}) func(context.Context, *job) error {
	return func(ctx context.Context, jb *job) error {
		started <- jb.id
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// TestServeRejectsAtCapacity: with one run slot and no queue, a second
// request is shed with 429 — and the running job is untouched by the
// rejection.
func TestServeRejectsAtCapacity(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueued: 0})
	started := make(chan string, 1)
	release := make(chan struct{})
	s.runHook = blockingHook(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan *http.Response, 1)
	go func() {
		first <- postSweep(t, ts.URL, testBody)
	}()
	<-started

	resp := postSweep(t, ts.URL, testBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %s, want 429", resp.Status)
	}
	var e ErrorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("429 body: %v %+v", err, e)
	}
	resp.Body.Close()

	// The rejected job must not linger in the registry.
	lresp, err := http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list) != 1 || list[0].State != JobRunning {
		t.Errorf("registry after rejection: %+v", list)
	}

	close(release)
	r1 := <-first
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Errorf("first request: %s", r1.Status)
	}
	if st := getStatus(t, ts.URL, "job-1"); st.State != JobDone {
		t.Errorf("first job after release: %+v", st)
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsJSON
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Jobs.Rejected != 1 || stats.Jobs.Submitted != 1 || stats.Jobs.Completed != 1 {
		t.Errorf("stats after rejection: %+v", stats.Jobs)
	}
}

// TestServeCancelRunning: DELETE on a running job cancels it through its
// context; the job reports canceled.
func TestServeCancelRunning(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	started := make(chan string, 1)
	s.runHook = blockingHook(started, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan *http.Response, 1)
	go func() {
		done <- postSweep(t, ts.URL, testBody)
	}()
	id := <-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %s, want 202", dresp.Status)
	}

	r := <-done
	r.Body.Close()
	st := getStatus(t, ts.URL, id)
	if st.State != JobCanceled {
		t.Errorf("after cancel: %+v", st)
	}

	// A second DELETE on the finished job is a conflict.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/"+id, nil)
	d2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	d2.Body.Close()
	if d2.StatusCode != http.StatusConflict {
		t.Errorf("second DELETE: %s, want 409", d2.Status)
	}
}

// TestServeCancelQueued: DELETE on a job still waiting for a run slot
// resolves its POST with 409 and a canceled status; the slot-holder is
// undisturbed.
func TestServeCancelQueued(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueued: 1})
	started := make(chan string, 1)
	release := make(chan struct{})
	s.runHook = blockingHook(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan *http.Response, 1)
	go func() { first <- postSweep(t, ts.URL, testBody) }()
	<-started

	second := make(chan *http.Response, 1)
	go func() { second <- postSweep(t, ts.URL, testBody) }()
	// Wait until the second job is registered and queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if getStatusOK(ts.URL, "job-2") == JobQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job-2 never queued")
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/job-2", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	r2 := <-second
	if r2.StatusCode != http.StatusConflict {
		t.Errorf("canceled queued POST: %s, want 409", r2.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if st.State != JobCanceled {
		t.Errorf("queued job after cancel: %+v", st)
	}

	close(release)
	r1 := <-first
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Errorf("slot holder disturbed by queued cancel: %s", r1.Status)
	}
}

// getStatusOK fetches a job state without failing on 404 (registration
// races are the caller's business).
func getStatusOK(url, id string) JobState {
	resp, err := http.Get(url + "/sweeps/" + id)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ""
	}
	var st JobStatus
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return ""
	}
	return st.State
}

// TestServeBadRequests: malformed and invalid submissions are 400s with a
// JSON error, unknown jobs are 404s, oversized grids are 413s.
func TestServeBadRequests(t *testing.T) {
	s := New(Config{MaxPoints: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		code       int
	}{
		{"malformed JSON", `{`, http.StatusBadRequest},
		{"unknown field", `{"apps":["pingpong"],"latencys":["5us"]}`, http.StatusBadRequest},
		{"no apps", `{"chunks":[4]}`, http.StatusBadRequest},
		{"unknown app", `{"apps":["nosuchapp"]}`, http.StatusBadRequest},
		{"bad bandwidth", `{"apps":["pingpong"],"bandwidths":["fast"]}`, http.StatusBadRequest},
		{"bad format", `{"apps":["pingpong"],"format":"xml"}`, http.StatusBadRequest},
		{"over point limit", testBody, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp := postSweep(t, ts.URL, tc.body)
		var e ErrorJSON
		err := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: %s, want %d", tc.name, resp.Status, tc.code)
		}
		if err != nil || e.Error == "" {
			t.Errorf("%s: error body: %v %+v", tc.name, err, e)
		}
	}

	resp, err := http.Get(ts.URL + "/sweeps/job-99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %s, want 404", resp.Status)
	}

	// Rejected submissions never enter the registry.
	if n := len(s.jobs); n != 0 {
		t.Errorf("registry holds %d jobs after rejections", n)
	}
}

// TestQueueAdmission exercises the admission controller directly.
func TestQueueAdmission(t *testing.T) {
	q := newQueue(2, 1)
	if err := q.Admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := q.Admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q.Running() != 2 {
		t.Errorf("running = %d, want 2", q.Running())
	}

	// Third admission queues; fourth overflows.
	third := make(chan error, 1)
	go func() { third <- q.Admit(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for q.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("third admission never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.Admit(context.Background()); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow: %v, want ErrBusy", err)
	}

	q.Release()
	if err := <-third; err != nil {
		t.Fatalf("queued admission after release: %v", err)
	}

	// Cancellation while queued returns the context error.
	ctx, cancel := context.WithCancel(context.Background())
	fifth := make(chan error, 1)
	go func() { fifth <- q.Admit(ctx) }()
	for q.Queued() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-fifth; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled admission: %v", err)
	}
	if q.Queued() != 0 {
		t.Errorf("queued = %d after cancel", q.Queued())
	}
}

// TestSweepRequestGrid: the JSON projection parses into the same grid the
// CLI flags would build, and element errors name the JSON field.
func TestSweepRequestGrid(t *testing.T) {
	req, err := DecodeSweepRequest(strings.NewReader(`{
		"apps": ["pingpong"], "ranks": [4], "bandwidths": ["64MB/s", "1GB/s"],
		"chunks": [4, 8], "mechanisms": ["none", "both"], "patterns": ["linear"],
		"latencies": ["5us"], "buses": [1], "ranks_per_node": [2],
		"eager_thresholds": ["0", "32KB", "all"], "collectives": ["log"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	g, err := req.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2*2*2*3 {
		t.Errorf("grid size %d, want %d", g.Size(), 2*2*2*3)
	}
	if len(g.EagerThresholds) != 3 || g.EagerThresholds[2] != -1 {
		t.Errorf("eager thresholds: %v ('all' must map to -1)", g.EagerThresholds)
	}

	for _, tc := range []struct{ body, field string }{
		{`{"apps":["x"],"bandwidths":["fast"]}`, "bandwidths"},
		{`{"apps":["x"],"latencies":["soon"]}`, "latencies"},
		{`{"apps":["x"],"mechanisms":["psychic"]}`, "mechanisms"},
		{`{"apps":["x"],"eager_thresholds":["tiny"]}`, "eager_thresholds"},
	} {
		req, err := DecodeSweepRequest(strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := req.Grid(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %v should name %q", tc.body, err, tc.field)
		}
	}
}

// TestServeCancelAll: shutdown cancels every live job.
func TestServeCancelAll(t *testing.T) {
	s := New(Config{MaxConcurrent: 2})
	started := make(chan string, 2)
	s.runHook = blockingHook(started, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan *http.Response, 2)
	for i := 0; i < 2; i++ {
		go func() { done <- postSweep(t, ts.URL, testBody) }()
	}
	<-started
	<-started
	s.CancelAll()
	for i := 0; i < 2; i++ {
		r := <-done
		r.Body.Close()
	}
	for _, id := range []string{"job-1", "job-2"} {
		if st := getStatus(t, ts.URL, id); st.State != JobCanceled {
			t.Errorf("%s after CancelAll: %+v", id, st)
		}
	}
}

// TestServeParallelReplayCounters: a daemon on a contention-free base
// picks the replay engine from the core count. A 32-rank job streams the
// same body at GOMAXPROCS 1 and 2, runs parallel windows exactly at 2, and
// /stats aggregates the job's window count.
func TestServeParallelReplayCounters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := machine.Default()
	base.InLinks, base.OutLinks = 0, 0
	const body = `{"apps":["ring"],"ranks":[32],"buses":[0],"latencies":["5us","20us","50us"],"iters":2,"format":"csv"}`

	var ref []byte
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		s := New(Config{Base: base, CacheDir: t.TempDir()})
		ts := httptest.NewServer(s.Handler())
		resp := postSweep(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatal(resp.Status)
		}
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Trailer.Get("X-Overlapsim-Status"); got != "ok" {
			t.Fatalf("status trailer %q, want ok", got)
		}
		if ref == nil {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Errorf("GOMAXPROCS=%d: body differs from GOMAXPROCS=1", procs)
		}

		st := getStatus(t, ts.URL, "job-1")
		if st.State != JobDone || st.Work == nil {
			t.Fatalf("status %+v", st)
		}
		if par := st.Work.ParallelWindows > 0; par != (procs >= 2) {
			t.Errorf("GOMAXPROCS=%d: daemon reported %d parallel windows", procs, st.Work.ParallelWindows)
		}
		var stats StatsJSON
		sr, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(sr.Body).Decode(&stats)
		sr.Body.Close()
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Work.ParallelWindows != st.Work.ParallelWindows {
			t.Errorf("/stats does not aggregate the window count: stats %+v, job %+v",
				stats.Work, *st.Work)
		}
	}
}

// TestServeApproxRequest covers the surrogate fast path over HTTP: a
// request with "approx":true streams a body carrying the approx column,
// reports predicted points in its terminal work document, and a plain
// request on the same daemon stays exact with the pre-approx document
// shape (no approx field, no surrogate counters).
func TestServeApproxRequest(t *testing.T) {
	s := New(Config{CacheDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bws := make([]string, 32)
	for i := range bws {
		bws[i] = fmt.Sprintf("%dMB/s", 8*(i+1))
	}
	grid := `{"apps":["pingpong"],"bandwidths":["` + strings.Join(bws, `","`) + `"],"size":256,"iters":1,"format":"csv"`

	resp := postSweep(t, ts.URL, grid+`,"approx":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(body), "\n")
	if !strings.HasSuffix(header, ",approx") {
		t.Errorf("approx job's CSV header lacks the approx column: %q", header)
	}
	st := getStatus(t, ts.URL, "job-1")
	if !st.Approx {
		t.Errorf("approx job status lacks the approx flag: %+v", st)
	}
	if st.Work == nil || st.Work.PredictedPoints == 0 {
		t.Errorf("approx job over a 32-bandwidth axis predicted nothing: %+v", st.Work)
	}

	resp = postSweep(t, ts.URL, grid+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.Status)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ = strings.Cut(string(body), "\n")
	if strings.Contains(header, "approx") {
		t.Errorf("exact job's CSV header gained an approx column: %q", header)
	}
	st = getStatus(t, ts.URL, "job-2")
	if st.Approx {
		t.Errorf("exact job status carries the approx flag: %+v", st)
	}
	if st.Work == nil || st.Work.PredictedPoints != 0 {
		t.Errorf("exact job reported surrogate work: %+v", st.Work)
	}

	// /stats work is exactly the sum of both jobs' counters, the approx
	// counters included.
	var sum sweep.Counters
	for _, id := range []string{"job-1", "job-2"} {
		jb := s.lookup(id)
		jb.mu.Lock()
		sum = sum.Add(jb.work)
		jb.mu.Unlock()
	}
	if sum.PredictedPoints == 0 || sum.SpotCheckReplays == 0 {
		t.Errorf("approx job recorded no surrogate work: %+v", sum)
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsJSON
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Work != sum {
		t.Errorf("/stats work %+v, want the summed job counters %+v", stats.Work, sum)
	}

	// Out-of-range knob overrides fail loudly at admission.
	resp = postSweep(t, ts.URL, grid+`,"approx_maxerr":-1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative approx_maxerr: got %s, want 400", resp.Status)
	}
	resp.Body.Close()
}
