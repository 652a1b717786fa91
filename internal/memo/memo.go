// Package memo is the single-flight map behind every in-process cache of
// the simulator: the sweep Runner's traced workloads and replay results,
// and core.Study's transformed variants.
package memo

import (
	"fmt"
	"sync"
)

// Map memoizes one computation per key. The first Get of a key runs fill;
// concurrent and later Gets of that key wait for it and share its value and
// error. It is safe for concurrent use and the zero value is ready.
//
// The map's lock is never held while fill runs, so fills of different keys
// proceed in parallel and a slow fill blocks only its own key. An error is
// memoized like a value: the key is not filled again. A panicking fill
// records "<what> panicked: <value>" as the key's error and re-raises the
// panic, so its caller still sees the panic while every later Get sees a
// failure, never a zero value passed off as a success.
type Map[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*slot[V]
}

type slot[V any] struct {
	done chan struct{} // closed once v and err are final
	v    V
	err  error
}

// Get returns the key's value and error, running fill (labelled what in a
// recorded panic) if the key is new. hit reports whether the key was
// already present, i.e. whether some other Get ran or is running the fill.
func (c *Map[K, V]) Get(key K, what string, fill func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	s, hit := c.m[key]
	if !hit {
		if c.m == nil {
			c.m = map[K]*slot[V]{}
		}
		s = &slot[V]{done: make(chan struct{})}
		c.m[key] = s
	}
	c.mu.Unlock()
	if hit {
		<-s.done
		return s.v, true, s.err
	}
	defer close(s.done) // runs after the re-panic below, once s.err is set
	defer func() {
		if p := recover(); p != nil {
			s.err = fmt.Errorf("%s panicked: %v", what, p)
			panic(p)
		}
	}()
	s.v, s.err = fill()
	return s.v, false, s.err
}
