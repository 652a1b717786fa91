package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"overlapsim/internal/serve"
)

// serveHandle is an in-process `overlapsim serve` on a loopback listener,
// with the HTTP client the benchmark's closed-loop clients share.
type serveHandle struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	hc   *http.Client
	done chan struct{}
}

// startServer serves a fresh server over the cache directory dir. Its run
// slots and queue match the client count, so no request is refused.
func startServer(dir string) (*serveHandle, error) {
	srv := serve.New(serve.Config{CacheDir: dir, MaxConcurrent: serveClients, MaxQueued: serveClients})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &serveHandle{
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // returns ErrServerClosed from close
	}()
	return h, nil
}

// post submits one sweep and reads the streamed body to the end. The
// sample is ok only for a 200 whose trailer reports a completed job; the
// digest is the body's. With a recorder it adds the request's client-side
// phases: until response headers, until the first result row, and the
// rest of the body.
func (h *serveHandle) post(ctx context.Context, req serve.SweepRequest, rec *recorder, parent int, id string) (reqSample, string) {
	var s reqSample
	body, err := json.Marshal(req)
	if err != nil {
		return s, ""
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url+"/sweeps", bytes.NewReader(body))
	if err != nil {
		return s, ""
	}
	hreq.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := h.hc.Do(hreq)
	if err != nil {
		return s, ""
	}
	defer resp.Body.Close()
	tHdr := time.Now()
	dw := newDigestWriter()
	buf := make([]byte, 32<<10)
	var tFirst time.Time
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if tFirst.IsZero() {
				tFirst = time.Now()
			}
			dw.Write(buf[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return s, ""
		}
	}
	tEnd := time.Now()
	if tFirst.IsZero() {
		tFirst = tEnd
	}
	s.lat, s.ttfb = tEnd.Sub(t0), tFirst.Sub(t0)
	s.ok = resp.StatusCode == http.StatusOK && resp.Trailer.Get("X-Overlapsim-Status") == "ok"
	if r := rec.add("http.request", parent, id, t0, tEnd); r >= 0 {
		rec.add("http.headers", r, id, t0, tHdr)
		rec.add("http.first_row", r, id, tHdr, tFirst)
		rec.add("http.body", r, id, tFirst, tEnd)
	}
	return s, dw.sum()
}

// stats fetches GET /stats.
func (h *serveHandle) stats(ctx context.Context) (serve.StatsJSON, error) {
	var st serve.StatsJSON
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := h.hc.Do(hreq)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// close stops the listener and every connection and waits for Serve to
// return. The cache directory stays; its owner removes it.
func (h *serveHandle) close() {
	_ = h.hs.Close()
	<-h.done
	h.srv.CancelAll()
	h.hc.CloseIdleConnections()
}
