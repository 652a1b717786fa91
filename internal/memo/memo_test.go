package memo

import (
	"errors"
	"runtime"
	"strings"
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

// TestDeleteDuringFill: a Delete while a fill runs still hands that fill's
// value to the Gets waiting on it, and the next Get fills the key again.
func TestDeleteDuringFill(t *testing.T) {
	var c Map[string, int]
	var fills atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	filler := make(chan int)
	go func() {
		v, _, _ := c.Get("k", "test", func() (int, error) {
			fills.Add(1)
			close(started)
			<-release
			return 1, nil
		})
		filler <- v
	}()
	<-started
	waiter := make(chan int)
	go func() {
		v, hit, _ := c.Get("k", "test", func() (int, error) {
			t.Error("a Get waiting on an in-flight fill filled again")
			return -1, nil
		})
		if !hit {
			t.Error("a Get waiting on an in-flight fill reported a miss")
		}
		waiter <- v
	}()
	// The waiter must be parked on the fill before the key goes away.
	for deadline := time.Now().Add(10 * time.Second); parkedGets() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("the second Get never started waiting")
		}
		time.Sleep(time.Millisecond)
	}
	c.Delete("k")
	close(release)
	if v := <-filler; v != 1 {
		t.Errorf("filler got %d, want 1", v)
	}
	if v := <-waiter; v != 1 {
		t.Errorf("waiter got %d, want the in-flight fill's 1", v)
	}
	v, hit, err := c.Get("k", "test", func() (int, error) {
		fills.Add(1)
		return 2, nil
	})
	if v != 2 || hit || err != nil {
		t.Errorf("Get after Delete: v=%d hit=%v err=%v, want a fresh fill of 2", v, hit, err)
	}
	if got := fills.Load(); got != 2 {
		t.Errorf("fill ran %d times, want 2", got)
	}
}

// parkedGets counts the goroutines blocked on a channel inside Map.Get:
// a filler parked in its fill, and every Get waiting on a fill.
func parkedGets() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, "memo.(*Map[...]).Get(") {
			n++
		}
	}
	return n
}

// TestDeleteRefills: a Delete after a fill forgets the value, so the next
// Get runs fill again and Lookup sees only the new value.
func TestDeleteRefills(t *testing.T) {
	var c Map[int, int]
	var fills atomic.Int64
	fill := func() (int, error) { return int(fills.Add(1)), nil }
	c.Get(7, "test", fill)
	if v, ok := c.Lookup(7); !ok || v != 1 {
		t.Fatalf("Lookup after fill = %d, %v, want 1, true", v, ok)
	}
	c.Delete(7)
	if _, ok := c.Lookup(7); ok {
		t.Fatal("Lookup found a deleted key")
	}
	if v, hit, _ := c.Get(7, "test", fill); v != 2 || hit {
		t.Errorf("Get after Delete = %d, hit=%v, want a miss filling 2", v, hit)
	}
	if got := fills.Load(); got != 2 {
		t.Errorf("fill ran %d times, want 2", got)
	}
}

// TestDeleteAbsent: deleting a key that was never filled, or twice, does
// nothing to the other keys.
func TestDeleteAbsent(t *testing.T) {
	var c Map[string, int]
	c.Delete("never") // on the zero Map
	c.Get("a", "test", func() (int, error) { return 1, nil })
	c.Delete("never")
	c.Delete("b")
	if v, ok := c.Lookup("a"); !ok || v != 1 {
		t.Errorf("Lookup(a) = %d, %v after deleting absent keys, want 1, true", v, ok)
	}
	c.Delete("a")
	c.Delete("a")
	if _, ok := c.Lookup("a"); ok {
		t.Error("Lookup found a twice-deleted key")
	}
}

// TestLookupNeverFills: Lookup reports missing, in-flight and failed keys
// as absent without inserting or waiting.
func TestLookupNeverFills(t *testing.T) {
	var c Map[string, int]
	if _, ok := c.Lookup("k"); ok {
		t.Fatal("Lookup found a key on the zero Map")
	}
	if _, hit, _ := c.Get("k", "test", func() (int, error) { return 3, nil }); hit {
		t.Error("Lookup inserted the key it missed")
	}
	c.Get("bad", "test", func() (int, error) { return 0, errors.New("boom") })
	if _, ok := c.Lookup("bad"); ok {
		t.Error("Lookup reported a failed key as present")
	}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Get("slow", "test", func() (int, error) {
			close(started)
			<-release
			return 4, nil
		})
	}()
	<-started
	if _, ok := c.Lookup("slow"); ok {
		t.Error("Lookup reported an in-flight key as present")
	}
	close(release)
	<-done
	if v, ok := c.Lookup("slow"); !ok || v != 4 {
		t.Errorf("Lookup(slow) = %d, %v after the fill, want 4, true", v, ok)
	}
}
