package sweep

import "errors"

// TeeSink fans every accepted result out to several sinks, so one sweep
// can feed, say, a streaming view plus a batch archive. Accept forwards to
// each sink in construction order; Close closes every sink, even after an
// earlier one fails, so no output path is left unterminated.
//
// The error contract follows the Sink interface: the first Accept failure
// makes the tee sticky-fail (further Accepts return the same error without
// reaching any inner sink), because one broken leg already means the
// combined output can no longer be delivered as promised and the engine
// should stop spending simulations on it.
type TeeSink struct {
	sinks []Sink
	err   error
}

// NewTeeSink returns a sink forwarding to all of the given sinks. A tee of
// zero sinks is valid and discards everything; a tee of one is a
// transparent wrapper.
func NewTeeSink(sinks ...Sink) *TeeSink {
	return &TeeSink{sinks: sinks}
}

// Accept forwards one result to every inner sink, stopping at (and
// sticking on) the first failure.
func (t *TeeSink) Accept(index int, r Result) error {
	if t.err != nil {
		return t.err
	}
	for _, s := range t.sinks {
		if err := s.Accept(index, r); err != nil {
			t.err = err
			return err
		}
	}
	return nil
}

// Close closes every inner sink — all of them, regardless of earlier
// failures, so each output is terminated — and returns the joined errors.
// A tee that failed during Accept still closes its sinks: the legs that
// can finalize a well-formed partial output (an OrderedSink's prefix) get
// to, and the sticky Accept error is folded into the result so a caller
// that only checks Close can never mistake a truncated tee for a clean one.
func (t *TeeSink) Close() error {
	errs := make([]error, 0, len(t.sinks)+1)
	if t.err != nil {
		errs = append(errs, t.err)
	}
	for _, s := range t.sinks {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if t.err == nil {
		t.err = errors.New("sweep: tee sink closed")
	}
	return errors.Join(errs...)
}
