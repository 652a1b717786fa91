package overlap

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// memoFacts reads the facts memoized on ts without letting it compute
// any: with its records swapped for empty ranks, ValidateOnce and
// Channels can only answer from memos filled before the call, or else
// describe an empty set. It leaves whatever memo it filled on ts.
func memoFacts(ts *trace.Set) (c *trace.Channels, collectives bool, err error) {
	traces := ts.Traces
	defer func() { ts.Traces = traces }()
	ts.Traces = make([]trace.Trace, len(traces))
	for i := range ts.Traces {
		ts.Traces[i].Rank = i
	}
	collectives, err = ts.ValidateOnce()
	return ts.Channels(), collectives, err
}

// factsMatch checks a variant Transform marked valid against the
// reference computations on a memo-free clone: full trace.Validate,
// ValidateOnce's collectives flag and a fresh Channels numbering.
func factsMatch(out *trace.Set) error {
	ref := out.Clone()
	wantColl, err := ref.ValidateOnce() // trace.Validate, on a fresh set
	if err != nil {
		return fmt.Errorf("variant invalid: %w", err)
	}
	want := ref.Channels()
	got, coll, err := memoFacts(out)
	if err != nil {
		return fmt.Errorf("memoized validation failed: %w", err)
	}
	if want.N > 0 && got.N == 0 {
		return fmt.Errorf("variant was not numbered by Transform")
	}
	if coll != wantColl {
		return fmt.Errorf("collectives = %v, Validate says %v", coll, wantColl)
	}
	if got.N != want.N || !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Slots, want.Slots) {
		return fmt.Errorf("derived channels differ from Channels():\n got N=%d Slots=%v IDs=%v\nwant N=%d Slots=%v IDs=%v",
			got.N, got.Slots, got.IDs, want.N, want.Slots, want.IDs)
	}
	return nil
}

// Transforms running at once share the original's memos and draw their
// scratch from one pool; each must still match a transform run alone.
func TestTransformConcurrent(t *testing.T) {
	ps := sendRecvSet()
	var opts []Options
	for _, mech := range allMechanisms() {
		for _, chunks := range chunkOverrides {
			opts = append(opts, Options{Mechanisms: mech, Chunks: chunks})
		}
	}
	want := make([]*trace.Set, len(opts))
	for i, o := range opts {
		var err error
		if want[i], err = Transform(sendRecvSet(), o); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, o := range opts {
				out, err := Transform(ps, o)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(out.Traces, want[i].Traces) {
					t.Errorf("%s: records differ from a lone transform", out.Variant)
				}
				if err := factsMatch(out); err != nil {
					t.Errorf("%s: %v", out.Variant, err)
				}
			}
		}()
	}
	wg.Wait()
}

// The local check rejects a transform whose chunks no longer match across
// the two sides of a message.
func TestTransformLocalCheckCatchesBrokenSplit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(kind trace.Kind, sizes []units.Bytes) []units.Bytes
	}{
		{"drop a receive chunk", func(kind trace.Kind, sizes []units.Bytes) []units.Bytes {
			if kind == trace.KindRecv {
				return sizes[:len(sizes)-1]
			}
			return sizes
		}},
		{"resize a send chunk by 1 byte", func(kind trace.Kind, sizes []units.Bytes) []units.Bytes {
			if kind == trace.KindSend {
				sizes[0]++
			}
			return sizes
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mutateSplit = tc.mutate
			defer func() { mutateSplit = nil }()
			_, err := Transform(sendRecvSet(), Options{Mechanisms: BothMechanisms})
			if err == nil || !strings.Contains(err.Error(), "split into") {
				t.Fatalf("Transform with a broken split: err = %v, want a split error", err)
			}
		})
	}
}

func TestPutRejectsUnpostedWait(t *testing.T) {
	sc := &scratch{req: []int32{reqUnposted, 0, reqWaited}}
	for _, req := range []int32{0, 2} {
		if err := sc.put(&trace.Trace{}, 0, &injection{kind: trace.KindWait, req: req}); err == nil {
			t.Errorf("wait for request %d: no error", req)
		}
	}
	if err := sc.put(&trace.Trace{}, len(sc.ids), &injection{kind: trace.KindWait, req: 1}); err != nil {
		t.Errorf("wait for a posted request: %v", err)
	}
}

// Transform rejects an original holding non-blocking records, whatever
// its request ids: they would pass through beside the chunk records' fresh
// ids, colliding with them from 1 and sharing chunk channels from 1000.
// The error names the rank and record, and no variant reaches replay.
func TestTransformRejectsNonBlockingOriginal(t *testing.T) {
	for _, req := range []int{1, 1000} {
		s := trace.NewSet("nb", "original", 2, 1000)
		s.Traces[0].Append(trace.ISend(1, 5, 64, req), trace.Wait(req), trace.Send(1, 0, 128))
		s.Traces[1].Append(trace.IRecv(0, 5, 64, req), trace.Wait(req), trace.Recv(0, 0, 128))
		if err := trace.Validate(s); err != nil {
			t.Fatalf("original invalid: %v", err)
		}
		ps := &ProfiledSet{Original: s, Chunks: 8, Annotations: []map[int]Annotation{{}, {}}}
		out, err := Transform(ps, Options{Mechanisms: BothMechanisms, Pattern: PatternLinear})
		want := fmt.Sprintf("rank 0: record 0 (IS 1 5 64 %d)", req)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("request id %d: Transform error = %v, want one naming %q", req, err, want)
		}
		if out != nil {
			t.Errorf("request id %d: Transform returned a variant", req)
		}
	}
}

// Transform rejects an original tag chunkTag cannot map without overflow,
// naming the rank and record.
func TestTransformRejectsOutOfRangeTag(t *testing.T) {
	for _, tag := range []int{maxTag + 1, minTag - 1} {
		s := trace.NewSet("bigtag", "original", 2, 1000)
		s.Traces[0].Append(trace.Burst(100), trace.Send(1, tag, 64))
		s.Traces[1].Append(trace.Recv(0, tag, 64), trace.Burst(100))
		ps := &ProfiledSet{Original: s, Chunks: 4, Annotations: []map[int]Annotation{{}, {}}}
		_, err := Transform(ps, Options{Mechanisms: BothMechanisms, Pattern: PatternLinear})
		want := fmt.Sprintf("rank 0: record 1 (S 1 %d 64): tag outside", tag)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("tag %d: Transform error = %v, want one containing %q", tag, err, want)
		}
	}
}
