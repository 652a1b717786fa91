package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGetFillsOnce: concurrent Gets of one key run fill exactly once, all
// see its value, and only the caller that ran it reports a miss.
func TestGetFillsOnce(t *testing.T) {
	const n = 16
	var c Map[string, int]
	var fills atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]int, n)
	hits := make([]bool, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Get("k", "test", func() (int, error) {
				fills.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], hits[i] = v, hit
		}()
	}
	close(release)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}
	misses := 0
	for i := range n {
		if vals[i] != 42 {
			t.Errorf("caller %d got %d, want 42", i, vals[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d callers reported a miss, want 1", misses)
	}
	if _, hit, _ := c.Get("k", "test", nil); !hit {
		t.Error("a later Get reported a miss")
	}
}

// TestFillDoesNotBlockOtherKeys: while one key's fill is running, another
// key fills and returns.
func TestFillDoesNotBlockOtherKeys(t *testing.T) {
	var c Map[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		c.Get("a", "test", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	gotB := make(chan int)
	go func() {
		v, _, _ := c.Get("b", "test", func() (int, error) { return 2, nil })
		gotB <- v
	}()
	select {
	case v := <-gotB:
		if v != 2 {
			t.Errorf("Get(b) = %d, want 2", v)
		}
	case <-time.After(10 * time.Second):
		t.Error("Get(b) waited for the fill of a")
	}
	close(release)
	<-doneA
}

// TestErrorMemoized: a failed fill's error is returned to later Gets
// without filling again.
func TestErrorMemoized(t *testing.T) {
	var c Map[int, string]
	boom := errors.New("boom")
	if _, hit, err := c.Get(1, "test", func() (string, error) { return "", boom }); hit || err != boom {
		t.Fatalf("first Get: hit=%v err=%v, want a miss with %v", hit, err, boom)
	}
	_, hit, err := c.Get(1, "test", func() (string, error) {
		t.Error("memoized error filled again")
		return "ok", nil
	})
	if !hit || err != boom {
		t.Fatalf("second Get: hit=%v err=%v, want a hit with %v", hit, err, boom)
	}
}

// TestPanicRecorded: a panicking fill re-panics to its caller, and every
// other Get of the key, waiting or later, returns the recorded panic as an
// error instead of a zero value.
func TestPanicRecorded(t *testing.T) {
	var c Map[string, *int]
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		c.Get("k", "replay", func() (*int, error) {
			close(started)
			<-release
			panic("invariant broken")
		})
	}()
	<-started
	waiter := make(chan error)
	go func() {
		_, _, err := c.Get("k", "replay", nil)
		waiter <- err
	}()
	close(release)
	if p := <-recovered; p != "invariant broken" {
		t.Fatalf("filler recovered %v, want the original panic", p)
	}
	const want = "replay panicked: invariant broken"
	if err := <-waiter; err == nil || err.Error() != want {
		t.Errorf("waiting Get: err = %v, want %q", err, want)
	}
	v, hit, err := c.Get("k", "replay", func() (*int, error) {
		t.Error("panicked key filled again")
		return new(int), nil
	})
	if v != nil || !hit || err == nil || err.Error() != want {
		t.Errorf("later Get: v=%v hit=%v err=%v, want a hit with %q", v, hit, err, want)
	}
}
