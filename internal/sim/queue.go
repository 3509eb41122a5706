package sim

// Queue is a bounded FIFO on the simulated timeline, analogous to a Go
// channel but synchronised through the simulator. It backs the Nemesis "IO
// channels" (the rbufs-like FIFO buffering between USD clients and the USD).
// Items live in a fixed ring buffer sized at construction, so steady-state
// send/recv traffic never allocates.
type Queue[T any] struct {
	buf      []T
	head     int // index of the oldest item
	n        int // buffered item count
	notEmpty Cond
	notFull  Cond
	closed   bool
}

// NewQueue returns a queue holding at most capacity items. capacity must be
// at least 1.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{buf: make([]T, capacity)}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Close marks the queue closed and wakes all waiters. Sends to a closed
// queue report failure; receives drain remaining items then report failure.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// push appends v to the ring. The caller has checked there is room.
func (q *Queue[T]) push(v T) {
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// pop removes and returns the oldest item. The caller has checked q.n > 0.
func (q *Queue[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// Send enqueues v, blocking p while the queue is full. It reports false if
// the queue was closed before the item could be enqueued.
func (q *Queue[T]) Send(p *Proc, v T) bool {
	for q.n >= len(q.buf) && !q.closed {
		q.notFull.Wait(p)
	}
	if q.closed {
		return false
	}
	q.push(v)
	q.notEmpty.Signal()
	return true
}

// TrySend enqueues v without blocking; it reports whether the item was
// accepted.
func (q *Queue[T]) TrySend(v T) bool {
	if q.closed || q.n >= len(q.buf) {
		return false
	}
	q.push(v)
	q.notEmpty.Signal()
	return true
}

// Recv dequeues the oldest item, blocking p while the queue is empty. It
// reports false when the queue is closed and drained.
func (q *Queue[T]) Recv(p *Proc) (T, bool) {
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait(p)
	}
	if q.n == 0 {
		var zero T
		return zero, false
	}
	v := q.pop()
	q.notFull.Signal()
	return v, true
}

// TryRecv dequeues without blocking; ok reports whether an item was present.
func (q *Queue[T]) TryRecv() (T, bool) {
	if q.n == 0 {
		var zero T
		return zero, false
	}
	v := q.pop()
	q.notFull.Signal()
	return v, true
}

// Peek returns the oldest item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	if q.n == 0 {
		var zero T
		return zero, false
	}
	return q.buf[q.head], true
}
