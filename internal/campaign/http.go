package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"overlapsim/internal/serve"
	"overlapsim/internal/sweep"
)

// The coordinator's wire protocol. Everything is JSON over HTTP so an
// `overlapsim worker` on any machine can join a campaign with nothing but
// the coordinator's address:
//
//	GET  /healthz            liveness (shared serve.HealthzHandler document)
//	GET  /campaign/spec      campaign identity + the sweep spec to re-parse
//	POST /campaign/lease     {worker} -> 200 lease | 204+Retry-After | 410 done
//	POST /campaign/heartbeat {worker, chunk} -> 204 | 410 lease lost
//	POST /campaign/complete  {worker, chunk, work, shard} -> 204
//	POST /campaign/fail      {worker, chunk, error} -> 204
//	GET  /campaign/status    counters snapshot
//
// 410 Gone is the protocol's "stop": on /lease it means the campaign is
// over, on /heartbeat it means the lease is lost and the chunk must be
// abandoned. Workers exit 0 on the former and cancel the chunk on the
// latter.

// ProtocolVersion gates spec compatibility between coordinator and worker.
// Version 2 sends CompleteRequest.Work under serve's snake_case work keys.
const ProtocolVersion = 2

// SpecJSON is the GET /campaign/spec document: everything a bare worker
// needs to reconstruct the sweep. Args is the raw sweep spec (the
// coordinator's post-`--` argv) which the worker re-parses with the same
// flag set; the signature is the tripwire that catches any skew between
// the two parses.
type SpecJSON struct {
	Version     int      `json:"protocol_version"`
	Signature   string   `json:"signature"`
	Total       int      `json:"total_points"`
	ChunkPoints int      `json:"chunk_points"`
	Chunks      int      `json:"chunks"`
	Args        []string `json:"args"`
	LeaseTTLMS  int64    `json:"lease_ttl_ms"`
}

// LeaseRequest asks for (or renews) work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseJSON is a granted lease on the wire.
type LeaseJSON struct {
	Chunk   int   `json:"chunk"`
	Lo      int   `json:"lo"`
	Hi      int   `json:"hi"`
	Attempt int   `json:"attempt"`
	TTLMS   int64 `json:"ttl_ms"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Chunk  int    `json:"chunk"`
}

// CompleteRequest reports a finished chunk: the shard envelope plus the
// work the worker's runner actually did for it (for campaign accounting).
type CompleteRequest struct {
	Worker string          `json:"worker"`
	Chunk  int             `json:"chunk"`
	Work   sweep.Counters  `json:"work"`
	Shard  json.RawMessage `json:"shard"`
}

// FailRequest reports a failed chunk ahead of lease expiry.
type FailRequest struct {
	Worker string `json:"worker"`
	Chunk  int    `json:"chunk"`
	Error  string `json:"error"`
}

// StatusJSON is the GET /campaign/status document.
type StatusJSON struct {
	Signature string   `json:"signature"`
	Counters  Counters `json:"counters"`
}

// Server mounts a Coordinator's wire protocol.
type Server struct {
	Coord *Coordinator
	// Args is the raw sweep spec served to workers.
	Args []string

	start time.Time
}

// NewServer wraps a coordinator for serving.
func NewServer(c *Coordinator, args []string) *Server {
	return &Server{Coord: c, Args: args, start: time.Now()}
}

// Handler returns the coordinator's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", serve.HealthzHandler(s.start))
	mux.HandleFunc("GET /campaign/spec", s.handleSpec)
	mux.HandleFunc("POST /campaign/lease", s.handleLease)
	mux.HandleFunc("POST /campaign/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /campaign/complete", s.handleComplete)
	mux.HandleFunc("POST /campaign/fail", s.handleFail)
	mux.HandleFunc("GET /campaign/status", s.handleStatus)
	return mux
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	cfg := s.Coord.cfg
	serve.WriteJSON(w, http.StatusOK, SpecJSON{
		Version:     ProtocolVersion,
		Signature:   cfg.Signature,
		Total:       cfg.Total,
		ChunkPoints: cfg.ChunkPoints,
		Chunks:      numChunks(cfg.Total, cfg.ChunkPoints),
		Args:        s.Args,
		LeaseTTLMS:  cfg.LeaseTTL.Milliseconds(),
	})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := serve.DecodeJSON(r.Body, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	lease, wait, err := s.Coord.Lease(req.Worker)
	switch {
	case errors.Is(err, ErrCampaignDone):
		serve.WriteError(w, http.StatusGone, "campaign complete")
	case err != nil:
		serve.WriteError(w, http.StatusInternalServerError, "%v", err)
	case lease == nil:
		// Nothing leasable right now; the worker should poll again after
		// the indicated wait (whole seconds, rounded up, per RFC 9110).
		w.Header().Set("Retry-After", strconv.FormatInt(int64((wait+time.Second-1)/time.Second), 10))
		w.Header().Set("Retry-After-Ms", strconv.FormatInt(wait.Milliseconds(), 10))
		w.WriteHeader(http.StatusNoContent)
	default:
		serve.WriteJSON(w, http.StatusOK, LeaseJSON{
			Chunk:   lease.Chunk,
			Lo:      lease.Lo,
			Hi:      lease.Hi,
			Attempt: lease.Attempt,
			TTLMS:   lease.TTL.Milliseconds(),
		})
	}
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := serve.DecodeJSON(r.Body, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch err := s.Coord.Heartbeat(req.Worker, req.Chunk); {
	case errors.Is(err, ErrLeaseLost):
		serve.WriteError(w, http.StatusGone, "lease lost")
	case err != nil:
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := serve.DecodeJSON(r.Body, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.Coord.Complete(req.Worker, req.Chunk, req.Work, req.Shard); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if err := serve.DecodeJSON(r.Body, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.Coord.Fail(req.Worker, req.Chunk, req.Error); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, StatusJSON{
		Signature: s.Coord.cfg.Signature,
		Counters:  s.Coord.Counters(),
	})
}

// Client is a worker's view of a remote coordinator. Its calls retry
// transport errors and 5xx (a coordinator mid-restart) under the shared
// serve.Retry policy, while deliberate protocol answers — a 204 "poll
// later", a 410 "stop" — pass through immediately.
type Client struct {
	Base   string // coordinator base URL, e.g. http://host:port
	Worker string // this worker's id, sent with every call
	Retry  serve.Retry
	HTTP   *http.Client
}

// Spec fetches the campaign spec.
func (c *Client) Spec(ctx context.Context) (*SpecJSON, error) {
	var spec SpecJSON
	if _, err := c.Retry.DoJSON(ctx, c.HTTP, http.MethodGet, c.Base+"/campaign/spec", nil, &spec); err != nil {
		return nil, fmt.Errorf("campaign: fetching spec: %w", err)
	}
	if spec.Version != ProtocolVersion {
		return nil, fmt.Errorf("campaign: coordinator speaks protocol %d, this worker %d", spec.Version, ProtocolVersion)
	}
	return &spec, nil
}

// Lease asks for work. It returns (lease, 0, nil) on a grant, (nil, wait,
// nil) when the worker should poll again after wait, and (nil, 0,
// ErrCampaignDone) when the campaign is over.
func (c *Client) Lease(ctx context.Context) (*Lease, time.Duration, error) {
	var lj LeaseJSON
	code, err := c.Retry.DoJSON(ctx, c.HTTP, http.MethodPost, c.Base+"/campaign/lease", LeaseRequest{Worker: c.Worker}, &lj)
	var se *serve.StatusError
	switch {
	case errors.As(err, &se) && se.Code == http.StatusGone:
		return nil, 0, ErrCampaignDone
	case err != nil:
		return nil, 0, fmt.Errorf("campaign: lease: %w", err)
	case code == http.StatusNoContent:
		return nil, time.Second, nil
	}
	return &Lease{
		Chunk:   lj.Chunk,
		Lo:      lj.Lo,
		Hi:      lj.Hi,
		Attempt: lj.Attempt,
		TTL:     time.Duration(lj.TTLMS) * time.Millisecond,
	}, 0, nil
}

// Heartbeat renews the lease on chunk; ErrLeaseLost means abandon it.
func (c *Client) Heartbeat(ctx context.Context, chunk int) error {
	_, err := c.Retry.DoJSON(ctx, c.HTTP, http.MethodPost, c.Base+"/campaign/heartbeat", HeartbeatRequest{Worker: c.Worker, Chunk: chunk}, nil)
	var se *serve.StatusError
	if errors.As(err, &se) && se.Code == http.StatusGone {
		return ErrLeaseLost
	}
	if err != nil {
		return fmt.Errorf("campaign: heartbeat: %w", err)
	}
	return nil
}

// Complete reports a finished chunk with its shard envelope and work.
func (c *Client) Complete(ctx context.Context, chunk int, work sweep.Counters, envelope []byte) error {
	req := CompleteRequest{Worker: c.Worker, Chunk: chunk, Work: work, Shard: json.RawMessage(envelope)}
	if _, err := c.Retry.DoJSON(ctx, c.HTTP, http.MethodPost, c.Base+"/campaign/complete", req, nil); err != nil {
		return fmt.Errorf("campaign: complete: %w", err)
	}
	return nil
}

// Fail reports a failed chunk.
func (c *Client) Fail(ctx context.Context, chunk int, reason string) error {
	req := FailRequest{Worker: c.Worker, Chunk: chunk, Error: reason}
	if _, err := c.Retry.DoJSON(ctx, c.HTTP, http.MethodPost, c.Base+"/campaign/fail", req, nil); err != nil {
		return fmt.Errorf("campaign: fail: %w", err)
	}
	return nil
}

// Status fetches the coordinator's counters snapshot.
func (c *Client) Status(ctx context.Context) (*StatusJSON, error) {
	var st StatusJSON
	if _, err := c.Retry.DoJSON(ctx, c.HTTP, http.MethodGet, c.Base+"/campaign/status", nil, &st); err != nil {
		return nil, fmt.Errorf("campaign: status: %w", err)
	}
	return &st, nil
}
