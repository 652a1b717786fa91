package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"overlapsim/internal/sweep"
)

// JobState is the lifecycle of one submitted sweep.
type JobState string

// Job lifecycle: Queued -> Running -> one of Done / Failed / Canceled.
// A job canceled while still queued goes straight to Canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// job is one submitted sweep: its request, its lifecycle, and — once it
// finishes — its work accounting. The handler goroutine that accepted the
// POST owns the run; status and cancel handlers touch only the fields
// guarded here.
type job struct {
	id      string
	grid    sweep.Grid
	points  int
	format  sweep.Format
	size    int
	iters   int
	approx  approxSettings
	created time.Time
	cancel  context.CancelFunc

	completed atomic.Int64 // points finished so far (engine Progress)

	mu    sync.Mutex
	state JobState
	errst string         // failure detail, set with JobFailed
	work  sweep.Counters // runner counters, set on any terminal state
}

// setState moves the job to a new state (with optional failure detail);
// terminal states are sticky so a late transition cannot resurrect a
// canceled job.
func (j *job) setState(s JobState, errst string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = s
	j.errst = errst
}

// finish records the terminal state and the runner's work counters.
func (j *job) finish(s JobState, errst string, work sweep.Counters) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		j.state = s
		j.errst = errst
	}
	j.work = work
}

// State returns the current lifecycle state.
func (j *job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// WorkJSON is the `work` object of the status and stats documents: the
// runner's counters under their JSON keys, so the HTTP and CLI views of
// avoided work read alike.
type WorkJSON = sweep.Counters

// JobStatus is the document GET /sweeps/{id} returns (and GET /sweeps
// lists). Work is present once the job reaches a terminal state: it is
// the per-job equivalent of the CLI's `sweep: work:` line, and on a warm
// repeat of an identical grid it reads all zeros for traces and replays.
type JobStatus struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Points    int      `json:"points"`
	Completed int64    `json:"completed"`
	Format    string   `json:"format"`
	// Approx reports that the job ran with the surrogate fast path, so
	// its body may carry interpolated rows (marked in the approx column).
	// Omitted for exact jobs, keeping their documents unchanged.
	Approx  bool      `json:"approx,omitempty"`
	Created time.Time `json:"created"`
	Error   string    `json:"error,omitempty"`
	Work    *WorkJSON `json:"work,omitempty"`
}

// Status snapshots the job.
func (j *job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Points:    j.points,
		Completed: j.completed.Load(),
		Format:    string(j.format),
		Approx:    j.approx.enabled,
		Created:   j.created,
		Error:     j.errst,
	}
	if j.state.Terminal() {
		w := j.work
		st.Work = &w
	}
	return st
}
