package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"overlapsim/internal/campaign"
	"overlapsim/internal/sweep"
)

// The pass-through wrappers below sit between a workload and the program:
// they forward every call unchanged and only take timestamps (the sink's
// first result) and, when a recorder is given, spans. Output is therefore
// byte-identical with tracing on and off, which the tests check.

// digestWriter hashes and counts the bytes an encoder writes, so a
// workload's output can be checked without keeping it.
type digestWriter struct {
	h hash.Hash
	n int64
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (d *digestWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

// sum is the digest form stored in refs/: the first 16 hex digits of the
// SHA-256 of the output.
func (d *digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// timedSink forwards to a sweep.Sink, noting when the first result arrived.
type timedSink struct {
	inner  sweep.Sink
	rec    *recorder
	parent int
	id     string
	// keep, when non-nil, receives every accepted result for checking.
	keep func(index int, r sweep.Result)

	first time.Time
}

func (s *timedSink) Accept(index int, r sweep.Result) error {
	if s.first.IsZero() {
		s.first = time.Now()
	}
	h := s.rec.start("sink.accept", s.parent, s.id)
	err := s.inner.Accept(index, r)
	s.rec.stop(h)
	if s.keep != nil {
		s.keep(index, r)
	}
	return err
}

func (s *timedSink) Close() error {
	h := s.rec.start("sink.close", s.parent, s.id)
	defer s.rec.stop(h)
	return s.inner.Close()
}

// timedBoard forwards to a campaign.Board, recording lease and completion
// spans.
type timedBoard struct {
	inner  campaign.Board
	rec    *recorder
	parent int
}

func (b *timedBoard) Lease(ctx context.Context) (*campaign.Lease, time.Duration, error) {
	h := b.rec.start("campaign.lease", b.parent, "")
	defer b.rec.stop(h)
	return b.inner.Lease(ctx)
}

func (b *timedBoard) Heartbeat(ctx context.Context, chunk int) error {
	return b.inner.Heartbeat(ctx, chunk)
}

func (b *timedBoard) Complete(ctx context.Context, chunk int, work sweep.Counters, envelope []byte) error {
	h := b.rec.start("campaign.complete", b.parent, fmt.Sprintf("chunk-%d", chunk))
	defer b.rec.stop(h)
	return b.inner.Complete(ctx, chunk, work, envelope)
}

func (b *timedBoard) Fail(ctx context.Context, chunk int, reason string) error {
	return b.inner.Fail(ctx, chunk, reason)
}
