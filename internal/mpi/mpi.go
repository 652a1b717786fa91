// Package mpi is an in-process message-passing runtime: the substrate on
// which application kernels execute so that the tracing tool can observe a
// real parallel run.
//
// In the paper each MPI process runs on its own Valgrind virtual machine;
// here each rank runs in its own goroutine against this runtime. The
// runtime provides the MPI subset the traced applications need: blocking
// point-to-point messages with tag matching, and the common collectives.
// Payloads are float64 slices, the element type of all the proxy kernels.
//
// Message matching is deterministic: a receive matches the oldest pending
// message with the requested source and tag, and collective results depend
// only on rank order, so a traced run is reproducible regardless of
// goroutine scheduling.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// ErrTimeout is returned when a blocking operation exceeds the world's
// watchdog timeout, which almost always means the application deadlocked.
var ErrTimeout = errors.New("mpi: blocking operation timed out (deadlock in application?)")

// Message is a point-to-point payload in flight.
type Message struct {
	Src  int
	Tag  int
	Data []float64
}

// inbox is the single-consumer mailbox of one rank.
type inbox struct {
	mu   sync.Mutex
	msgs []Message
	bell chan struct{} // capacity 1; rung on every delivery
}

func newInbox() *inbox {
	return &inbox{bell: make(chan struct{}, 1)}
}

func (ib *inbox) deliver(m Message) {
	ib.mu.Lock()
	ib.msgs = append(ib.msgs, m)
	ib.mu.Unlock()
	select {
	case ib.bell <- struct{}{}:
	default:
	}
}

// take removes and returns the oldest message matching (src, tag); ok
// reports whether one was found.
func (ib *inbox) take(src, tag int) (Message, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for i, m := range ib.msgs {
		if (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag) {
			ib.msgs = append(ib.msgs[:i], ib.msgs[i+1:]...)
			return m, true
		}
	}
	return Message{}, false
}

// World is a communicator: a fixed set of ranks that can exchange messages
// and participate in collectives.
type World struct {
	n       int
	inboxes []*inbox
	timeout time.Duration

	collMu    sync.Mutex
	collSlots map[int]*collSlot
	collSeqs  []int // per-rank collective sequence numbers
}

// Option configures a World.
type Option func(*World)

// WithTimeout sets the watchdog timeout for blocking operations. The
// default is 30 seconds; tests lower it to fail fast on deadlocks.
func WithTimeout(d time.Duration) Option {
	return func(w *World) { w.timeout = d }
}

// NewWorld creates a communicator with n ranks.
func NewWorld(n int, opts ...Option) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", n)
	}
	w := &World{
		n:         n,
		inboxes:   make([]*inbox, n),
		timeout:   30 * time.Second,
		collSlots: map[int]*collSlot{},
		collSeqs:  make([]int, n),
	}
	for i := range w.inboxes {
		w.inboxes[i] = newInbox()
	}
	for _, o := range opts {
		o(w)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Rank returns the handle rank i uses for communication.
func (w *World) Rank(i int) (*Rank, error) {
	if i < 0 || i >= w.n {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", i, w.n)
	}
	return &Rank{world: w, id: i}, nil
}

// Run executes body concurrently on every rank and waits for all of them.
// It returns the first error (by rank order); a panic in a rank body is
// converted into an error rather than crashing the process.
func (w *World) Run(body func(r *Rank) error) error {
	errs := make([]error, w.n)
	var wg sync.WaitGroup
	for i := 0; i < w.n; i++ {
		r, err := w.Rank(i)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(rank *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank.id] = fmt.Errorf("mpi: rank %d panicked: %v", rank.id, p)
				}
			}()
			errs[rank.id] = body(rank)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Rank is one process's endpoint into the world.
type Rank struct {
	world *World
	id    int
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.n }

// Send delivers a copy of data to dst with the given tag. Sends are eager
// and buffered: Send returns as soon as the message is enqueued, so a
// matching pair of Send calls on two ranks cannot deadlock. (Protocol
// effects such as rendezvous blocking belong to the replay simulator, not
// to the tracing run.)
func (r *Rank) Send(dst, tag int, data []float64) error {
	if dst < 0 || dst >= r.world.n {
		return fmt.Errorf("mpi: rank %d: send to invalid rank %d", r.id, dst)
	}
	if dst == r.id {
		return fmt.Errorf("mpi: rank %d: send to self", r.id)
	}
	buf := append([]float64(nil), data...)
	r.world.inboxes[dst].deliver(Message{Src: r.id, Tag: tag, Data: buf})
	return nil
}

// Recv blocks until a message with the given source and tag (wildcards
// allowed) arrives, and copies its payload into buf. The message length
// must equal len(buf).
func (r *Rank) Recv(src, tag int, buf []float64) error {
	m, err := r.recvMessage(src, tag)
	if err != nil {
		return err
	}
	if len(m.Data) != len(buf) {
		return fmt.Errorf("mpi: rank %d: recv size mismatch: message from %d tag %d has %d elements, buffer has %d",
			r.id, m.Src, m.Tag, len(m.Data), len(buf))
	}
	copy(buf, m.Data)
	return nil
}

func (r *Rank) recvMessage(src, tag int) (Message, error) {
	if src != AnySource && (src < 0 || src >= r.world.n) {
		return Message{}, fmt.Errorf("mpi: rank %d: recv from invalid rank %d", r.id, src)
	}
	ib := r.world.inboxes[r.id]
	deadline := time.NewTimer(r.world.timeout)
	defer deadline.Stop()
	for {
		if m, ok := ib.take(src, tag); ok {
			return m, nil
		}
		select {
		case <-ib.bell:
			// Another message arrived; rescan.
		case <-deadline.C:
			return Message{}, fmt.Errorf("%w (rank %d waiting for src=%d tag=%d)", ErrTimeout, r.id, src, tag)
		}
	}
}
