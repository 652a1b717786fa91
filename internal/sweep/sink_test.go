package sweep

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/units"
)

// sinkGrid exercises the dynamic-column machinery too: a platform axis on
// top of the app-side axes.
func sinkGrid() Grid {
	g := scaleoutGrid()
	g.Latencies = []units.Duration{5 * units.Microsecond, 50 * units.Microsecond}
	return g
}

// shuffled returns the grid's results in a deterministic non-grid order —
// the completion-order hostile case every sink must tolerate.
func shuffledOrder(n int, seed int64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// TestSinksByteIdenticalToBatchWriters is the sink oracle: for every
// format, feeding results through the batch sink and through the
// ordered-prefix sink — in shuffled completion order — produces output
// byte-identical to Write.
func TestSinksByteIdenticalToBatchWriters(t *testing.T) {
	for _, g := range []Grid{scaleoutGrid(), sinkGrid()} {
		pts := g.Expand()
		results, err := newScaleoutRunner(t).Run(g)
		if err != nil {
			t.Fatal(err)
		}
		order := shuffledOrder(len(results), 1)
		for _, f := range []Format{FormatTable, FormatCSV, FormatJSON} {
			var want bytes.Buffer
			if err := Write(&want, f, results, false); err != nil {
				t.Fatal(err)
			}
			for name, sink := range map[string]func(*bytes.Buffer) Sink{
				"batch":   func(b *bytes.Buffer) Sink { return NewBatchSink(b, f) },
				"ordered": func(b *bytes.Buffer) Sink { return NewOrderedSink(b, f, pts, nil) },
			} {
				var got bytes.Buffer
				s := sink(&got)
				for _, i := range order {
					if err := s.Accept(i, results[i]); err != nil {
						t.Fatalf("%s %s: Accept(%d): %v", name, f, i, err)
					}
				}
				if err := s.Close(); err != nil {
					t.Fatalf("%s %s: Close: %v", name, f, err)
				}
				if !bytes.Equal(want.Bytes(), got.Bytes()) {
					t.Errorf("%s sink %s output differs from Write:\n%s\n---\n%s",
						name, f, want.String(), got.String())
				}
			}
		}
	}
}

// TestOrderedSinkUnknownFormatDegradesLikeWrite: an unvalidated Format
// value renders as a table in the batch path; the ordered sink must
// degrade identically, not panic.
func TestOrderedSinkUnknownFormatDegradesLikeWrite(t *testing.T) {
	g := scaleoutGrid()
	pts := g.Expand()
	results, err := newScaleoutRunner(t).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := Write(&want, Format("yaml"), results, false); err != nil {
		t.Fatal(err)
	}
	s := NewOrderedSink(&got, Format("yaml"), pts, nil)
	for i, r := range results {
		if err := s.Accept(i, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("unknown-format ordered output differs from Write's table fallback:\n%s\n---\n%s",
			want.String(), got.String())
	}
}

// TestOrderedSinkEmptyMatchesBatch: a zero-result Close still terminates
// the encoding identically to the batch writers (header-only CSV, empty
// JSON array, bare table header).
func TestOrderedSinkEmptyMatchesBatch(t *testing.T) {
	for _, f := range []Format{FormatTable, FormatCSV, FormatJSON} {
		var want, got bytes.Buffer
		if err := Write(&want, f, nil, false); err != nil {
			t.Fatal(err)
		}
		s := NewOrderedSink(&got, f, nil, nil)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("%s: empty ordered output %q, want %q", f, got.String(), want.String())
		}
	}
}

// TestOrderedSinkFlushesContiguousPrefix pins the ordered-prefix contract:
// rows reach the writer exactly when their prefix completes, out-of-order
// arrivals wait, and Close leaves a well-formed partial encoding holding
// exactly the flushed prefix — the file an interrupted sweep keeps.
func TestOrderedSinkFlushesContiguousPrefix(t *testing.T) {
	g := scaleoutGrid()
	pts := g.Expand()
	results, err := newScaleoutRunner(t).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := NewOrderedSink(&buf, FormatCSV, pts, nil)
	countRows := func() int { return strings.Count(buf.String(), "\n") }

	// Point 1 arrives first: nothing can flush (0 is missing).
	if err := s.Accept(1, results[1]); err != nil {
		t.Fatal(err)
	}
	if got := countRows(); got != 0 || s.Flushed() != 0 {
		t.Fatalf("gap at 0: %d lines flushed, Flushed=%d, want 0", got, s.Flushed())
	}
	// Point 0 closes the gap: header + rows 0 and 1 flush together.
	if err := s.Accept(0, results[0]); err != nil {
		t.Fatal(err)
	}
	if got := countRows(); got != 3 || s.Flushed() != 2 {
		t.Fatalf("after closing the gap: %d lines, Flushed=%d, want 3 lines / 2 rows", got, s.Flushed())
	}
	// Point 3 stays pending behind the missing 2; Close drops it, keeping
	// the contiguous [0,1] prefix — an *ordered* partial file must not
	// contain row 3 with row 2 missing.
	if err := s.Accept(3, results[3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := Write(&want, FormatCSV, results[:2], false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), buf.Bytes()) {
		t.Errorf("partial file:\n%s\nwant the 2-row prefix:\n%s", buf.String(), want.String())
	}
}

// TestOrderedSinkPartialJSONParses: the interrupted JSON file is still a
// valid document (the array is terminated on Close).
func TestOrderedSinkPartialJSONParses(t *testing.T) {
	g := scaleoutGrid()
	pts := g.Expand()
	results, err := newScaleoutRunner(t).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, flushed := range []int{0, 1, 3} {
		var buf bytes.Buffer
		s := NewOrderedSink(&buf, FormatJSON, pts, nil)
		for i := 0; i < flushed; i++ {
			if err := s.Accept(i, results[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := Write(&want, FormatJSON, results[:flushed], false); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), buf.Bytes()) {
			t.Errorf("%d-row partial JSON differs from batch encoding of the prefix:\n%s\n---\n%s",
				flushed, buf.String(), want.String())
		}
	}
}

// TestShardSinkMatchesWriteShard: the shard sink's envelope is
// byte-identical to WriteShard over the same indices and results, with
// results arriving in shuffled completion order.
func TestShardSinkMatchesWriteShard(t *testing.T) {
	g := sinkGrid()
	total := g.Size()
	sh := Shard{K: 1, N: 2}
	indices := sh.Indices(total)
	results, err := runIndices(newScaleoutRunner(t), g, indices)
	if err != nil {
		t.Fatal(err)
	}
	sig := Signature(g, machine.Default(), 512, 2)

	var want bytes.Buffer
	if err := WriteShard(&want, sig, total, sh, indices, results); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	s := NewShardSink(&got, sig, total, sh, indices)
	for _, j := range shuffledOrder(len(indices), 7) {
		if err := s.Accept(indices[j], results[j]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("shard sink envelope differs from WriteShard:\n%s\n---\n%s", want.String(), got.String())
	}
}

// TestShardSinkRefusesPartialEnvelope: a shard envelope missing points is
// worthless to merge, so Close must fail loudly instead of writing one.
func TestShardSinkRefusesPartialEnvelope(t *testing.T) {
	g := scaleoutGrid()
	sh := Shard{K: 1, N: 2}
	indices := sh.Indices(g.Size())
	var buf bytes.Buffer
	s := NewShardSink(&buf, "sig", g.Size(), sh, indices)
	if err := s.Accept(indices[0], Result{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close on a partial shard succeeded")
	}
	if buf.Len() != 0 {
		t.Errorf("partial envelope written: %q", buf.String())
	}
	if err := s.Accept(indices[0], Result{}); err == nil {
		t.Error("duplicate Accept after failed Close succeeded")
	}
}

// TestSinkRejectsDuplicatesAndStrays: every sink refuses duplicate and
// unexpected indices — the engine never produces them, so one arriving
// means corruption upstream, which must not be encoded silently.
func TestSinkRejectsDuplicatesAndStrays(t *testing.T) {
	g := scaleoutGrid()
	pts := g.Expand()
	sinks := map[string]Sink{
		"batch":   NewBatchSink(&bytes.Buffer{}, FormatCSV),
		"ordered": NewOrderedSink(&bytes.Buffer{}, FormatCSV, pts, []int{0, 2}),
		"shard":   NewShardSink(&bytes.Buffer{}, "sig", len(pts), Shard{K: 1, N: 1}, []int{0, 2}),
	}
	for name, s := range sinks {
		if err := s.Accept(0, Result{}); err != nil {
			t.Fatalf("%s: first Accept: %v", name, err)
		}
		if err := s.Accept(0, Result{}); err == nil {
			t.Errorf("%s: duplicate Accept succeeded", name)
		}
	}
	for _, name := range []string{"ordered", "shard"} {
		s := sinks[name]
		if err := s.Accept(1, Result{}); err == nil {
			t.Errorf("%s: stray index accepted", name)
		}
	}
}

// failWriter fails after the first n bytes.
type failWriter struct {
	n int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

// TestRunSinkContextSurfacesSinkError: a sink whose writer fails mid-sweep
// aborts the run with a *SinkError instead of simulating the rest of the
// grid into a black hole.
func TestRunSinkContextSurfacesSinkError(t *testing.T) {
	r := newScaleoutRunner(t)
	g := scaleoutGrid()
	sink := NewOrderedSink(&failWriter{n: 40}, FormatCSV, g.Expand(), nil)
	err := r.RunSinkContext(context.Background(), g, sink)
	var se *SinkError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a *SinkError", err)
	}
}

// TestRunSinkMatchesRun: the retain-nothing sink path delivers exactly the
// results Run returns, for serial and parallel execution.
func TestRunSinkMatchesRun(t *testing.T) {
	g := sinkGrid()
	want, err := newScaleoutRunner(t).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := Write(&wantCSV, FormatCSV, want, false); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		r := newScaleoutRunner(t)
		r.Engine = Engine{Workers: workers}
		var got bytes.Buffer
		sink := NewOrderedSink(&got, FormatCSV, g.Expand(), nil)
		if err := r.RunSink(g, sink); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantCSV.Bytes(), got.Bytes()) {
			t.Errorf("workers=%d: RunSink output differs from Run+Write:\n%s\n---\n%s",
				workers, wantCSV.String(), got.String())
		}
	}
}

// TestRunIndicesSinkContextShardEnvelope: the shard execution path through
// a sink produces the same envelope as the slice-returning path through
// WriteShard — the CLI's -shard rewiring oracle.
func TestRunIndicesSinkContextShardEnvelope(t *testing.T) {
	g := scaleoutGrid()
	total := g.Size()
	sh := Shard{K: 2, N: 2}
	indices := sh.Indices(total)
	sig := Signature(g, machine.Default(), 512, 2)

	results, err := runIndices(newScaleoutRunner(t), g, indices)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteShard(&want, sig, total, sh, indices, results); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	sink := NewShardSink(&got, sig, total, sh, indices)
	r := newScaleoutRunner(t)
	r.Engine = Engine{Workers: 4}
	if err := r.RunIndicesSinkContext(context.Background(), g, indices, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("sink shard envelope differs:\n%s\n---\n%s", want.String(), got.String())
	}
}

// TestEachContextEmitErrorStopsClaiming: after an emit error the engine
// stops claiming jobs (serial path), mirroring a job failure.
func TestEachContextEmitErrorStopsClaiming(t *testing.T) {
	ran := 0
	boom := errors.New("boom")
	err := EachContext(context.Background(), Engine{Workers: 1}, 100,
		func(i int) (int, error) { ran++; return i, nil },
		func(i, v int) error {
			if i == 4 {
				return boom
			}
			return nil
		})
	var se *SinkError
	if !errors.As(err, &se) || !errors.Is(err, boom) || se.Index != 4 {
		t.Fatalf("err = %v, want SinkError{4, boom}", err)
	}
	if ran != 5 {
		t.Errorf("ran %d jobs after the sink failed, want 5", ran)
	}
}

// TestRunSinkAcceptPanicFailsRun: a sink whose Accept panics fails its
// run with a *SinkError wrapping a *PanicError at the point it was handed,
// instead of crashing the process from a worker goroutine, and the Runner
// stays usable.
func TestRunSinkAcceptPanicFailsRun(t *testing.T) {
	g := sinkGrid()
	for _, workers := range []int{1, 4} {
		r := newScaleoutRunner(t)
		r.Engine = Engine{Workers: workers}
		err := r.RunSink(g, sinkFunc(func(i int, _ Result) error {
			if i == 1 {
				panic("boom in Accept")
			}
			return nil
		}))
		var se *SinkError
		var pe *PanicError
		if !errors.As(err, &se) || se.Index != 1 || !errors.As(err, &pe) || pe.Value != "boom in Accept" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: err = %v, want *SinkError{Index: 1} wrapping the recovered panic", workers, err)
		}
		if _, err := r.Run(g); err != nil {
			t.Fatalf("workers=%d: run after the panic: %v", workers, err)
		}
	}
}

// TestEachContextProgressPanic: a panicking Progress callback is a failed
// delivery too, reported as that index's *SinkError.
func TestEachContextProgressPanic(t *testing.T) {
	e := Engine{Workers: 1, Progress: func(done, total int) {
		if done == 3 {
			panic("boom in Progress")
		}
	}}
	err := EachContext(context.Background(), e, 10, func(i int) (int, error) { return i, nil }, discard)
	var se *SinkError
	var pe *PanicError
	if !errors.As(err, &se) || se.Index != 2 || !errors.As(err, &pe) || pe.Value != "boom in Progress" {
		t.Fatalf("err = %v, want *SinkError{Index: 2} wrapping the recovered panic", err)
	}
}

// TestBatchSinkCloseIsFinal: a closed sink keeps failing, so a broken
// pipeline cannot be reused by accident.
func TestBatchSinkCloseIsFinal(t *testing.T) {
	s := NewBatchSink(&bytes.Buffer{}, FormatCSV)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Accept(0, Result{}); err == nil {
		t.Error("Accept after Close succeeded")
	}
	if err := s.Close(); err == nil {
		t.Error("second Close succeeded")
	}
}
