package mpi

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

func newTestWorld(t *testing.T, n int) *World {
	t.Helper()
	w, err := NewWorld(n, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := NewWorld(n); err == nil {
			t.Errorf("NewWorld(%d): expected error", n)
		}
	}
}

func TestRankOutOfRange(t *testing.T) {
	w := newTestWorld(t, 2)
	if _, err := w.Rank(2); err == nil {
		t.Error("Rank(2) on size-2 world: expected error")
	}
	if _, err := w.Rank(-1); err == nil {
		t.Error("Rank(-1): expected error")
	}
}

func TestSendRecvBasic(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			return r.Send(1, 42, []float64{1, 2, 3})
		case 1:
			buf := make([]float64, 3)
			if err := r.Recv(0, 42, buf); err != nil {
				return err
			}
			if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
				return fmt.Errorf("payload = %v", buf)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			data := []float64{7}
			if err := r.Send(1, 0, data); err != nil {
				return err
			}
			data[0] = 99 // must not affect the in-flight message
			return nil
		}
		buf := make([]float64, 1)
		if err := r.Recv(0, 0, buf); err != nil {
			return err
		}
		if buf[0] != 7 {
			return fmt.Errorf("send aliased caller buffer: got %v", buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagAndSourceFiltering(t *testing.T) {
	w := newTestWorld(t, 3)
	err := w.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			return r.Send(2, 1, []float64{10})
		case 1:
			return r.Send(2, 2, []float64{20})
		case 2:
			buf := make([]float64, 1)
			// Ask for tag 2 first, even though tag 1 may arrive earlier.
			if err := r.Recv(1, 2, buf); err != nil {
				return err
			}
			if buf[0] != 20 {
				return fmt.Errorf("tag filter: got %v, want 20", buf[0])
			}
			if err := r.Recv(AnySource, AnyTag, buf); err != nil {
				return err
			}
			if buf[0] != 10 {
				return fmt.Errorf("wildcard recv: got %v, want 10", buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvFIFOPerSourceTag(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			for i := 0; i < 5; i++ {
				if err := r.Send(1, 9, []float64{float64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]float64, 1)
		for i := 0; i < 5; i++ {
			if err := r.Recv(0, 9, buf); err != nil {
				return err
			}
			if buf[0] != float64(i) {
				return fmt.Errorf("FIFO violated: got %v at position %d", buf[0], i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendErrors(t *testing.T) {
	w := newTestWorld(t, 2)
	r0, _ := w.Rank(0)
	if err := r0.Send(5, 0, nil); err == nil {
		t.Error("send to out-of-range rank: expected error")
	}
	if err := r0.Send(0, 0, nil); err == nil {
		t.Error("send to self: expected error")
	}
	if err := r0.Recv(7, 0, nil); err == nil {
		t.Error("recv from out-of-range rank: expected error")
	}
}

func TestRecvSizeMismatch(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 0, []float64{1, 2, 3})
		}
		buf := make([]float64, 2)
		err := r.Recv(0, 0, buf)
		if err == nil {
			return errors.New("size mismatch not detected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeout(t *testing.T) {
	w, err := NewWorld(2, WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := w.Rank(1)
	start := time.Now()
	err = r1.Recv(0, 0, make([]float64, 1))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Error("timeout took too long")
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !contains(err.Error(), "kaboom") {
		t.Errorf("panic not converted to error: %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestBarrier(t *testing.T) {
	const n = 4
	w := newTestWorld(t, n)
	var before [n]int32
	err := w.Run(func(r *Rank) error {
		before[r.ID()] = 1
		if err := r.Barrier(); err != nil {
			return err
		}
		// After the barrier every rank must observe everyone's flag.
		for i := 0; i < n; i++ {
			if before[i] != 1 {
				return fmt.Errorf("rank %d passed barrier before rank %d arrived", r.ID(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	const n = 5
	w := newTestWorld(t, n)
	err := w.Run(func(r *Rank) error {
		buf := make([]float64, 3)
		if r.ID() == 2 {
			buf = []float64{1, 2, 3}
		}
		if err := r.Bcast(2, buf); err != nil {
			return err
		}
		if buf[0] != 1 || buf[2] != 3 {
			return fmt.Errorf("rank %d bcast result %v", r.ID(), buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	const n = 6
	w := newTestWorld(t, n)
	err := w.Run(func(r *Rank) error {
		buf := []float64{float64(r.ID()), 1}
		if err := r.Reduce(0, buf); err != nil {
			return err
		}
		if r.ID() == 0 {
			if buf[0] != 15 || buf[1] != 6 { // 0+1+..+5 = 15
				return fmt.Errorf("reduce result %v", buf)
			}
		} else if buf[1] != 1 {
			return fmt.Errorf("reduce clobbered non-root buffer: %v", buf)
		}
		all := []float64{2}
		if err := r.Allreduce(all); err != nil {
			return err
		}
		if all[0] != 12 {
			return fmt.Errorf("allreduce result %v, want 12", all)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	const n = 4
	w := newTestWorld(t, n)
	err := w.Run(func(r *Rank) error {
		out := make([]float64, 2*n)
		if err := r.Allgather([]float64{float64(r.ID()), -float64(r.ID())}, out); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if out[2*i] != float64(i) || out[2*i+1] != -float64(i) {
				return fmt.Errorf("allgather out = %v", out)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	const n, blk = 3, 2
	w := newTestWorld(t, n)
	err := w.Run(func(r *Rank) error {
		buf := make([]float64, n*blk)
		for d := 0; d < n; d++ {
			buf[d*blk] = float64(100*r.ID() + d) // block destined for rank d
			buf[d*blk+1] = 0.5
		}
		out := make([]float64, n*blk)
		if err := r.Alltoall(blk, buf, out); err != nil {
			return err
		}
		for s := 0; s < n; s++ {
			want := float64(100*s + r.ID())
			if out[s*blk] != want {
				return fmt.Errorf("rank %d alltoall out=%v, block %d want %v", r.ID(), out, s, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveLengthMismatch(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		buf := make([]float64, r.ID()+1) // lengths differ across ranks
		err := r.Allreduce(buf)
		if err == nil {
			return errors.New("length mismatch not detected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesInSequence(t *testing.T) {
	// Multiple different collectives back to back must not cross-talk.
	const n = 4
	w := newTestWorld(t, n)
	err := w.Run(func(r *Rank) error {
		for iter := 0; iter < 10; iter++ {
			v := []float64{1}
			if err := r.Allreduce(v); err != nil {
				return err
			}
			if v[0] != n {
				return fmt.Errorf("iter %d: allreduce = %v", iter, v[0])
			}
			if err := r.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicHaloExchange(t *testing.T) {
	// A 2-iteration halo exchange must produce identical values on repeat
	// runs regardless of goroutine scheduling.
	run := func() []float64 {
		const n = 4
		w := newTestWorld(t, n)
		result := make([]float64, n)
		err := w.Run(func(r *Rank) error {
			val := float64(r.ID() + 1)
			buf := make([]float64, 1)
			for iter := 0; iter < 2; iter++ {
				next := (r.ID() + 1) % n
				prev := (r.ID() + n - 1) % n
				if err := r.Send(next, iter, []float64{val}); err != nil {
					return err
				}
				if err := r.Recv(prev, iter, buf); err != nil {
					return err
				}
				val = math.Sqrt(val*buf[0]) + 1
			}
			result[r.ID()] = val
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return result
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic exchange: %v vs %v", a, b)
		}
	}
}

func BenchmarkSendRecv(b *testing.B) {
	w, err := NewWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]float64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := w.Run(func(r *Rank) error {
			if r.ID() == 0 {
				return r.Send(1, 0, payload)
			}
			return r.Recv(0, 0, make([]float64, 128))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
