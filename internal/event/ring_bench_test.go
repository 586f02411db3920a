package event

import (
	"runtime"
	"scap/internal/flowtab"
	"sync"
	"testing"
)

// mutexQueue is the pre-desynchronization event queue (mutex + cond),
// embedded here as the benchmark reference so BenchmarkEventRing compares
// the lock-free ring against exactly what it replaced. PushBatch/PopBatch
// give the mutex its best case: one lock acquisition per batch.
type mutexQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []Event
	head, n int
	closed  bool
}

func newMutexQueue(capacity int) *mutexQueue {
	q := &mutexQueue{buf: make([]Event, capacity)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *mutexQueue) Push(e Event) bool {
	q.mu.Lock()
	if q.closed || q.n == len(q.buf) {
		q.mu.Unlock()
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = e
	q.n++
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

func (q *mutexQueue) PushBatch(evs []Event) int {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0
	}
	k := len(q.buf) - q.n
	if k > len(evs) {
		k = len(evs)
	}
	for i := 0; i < k; i++ {
		q.buf[(q.head+q.n)%len(q.buf)] = evs[i]
		q.n++
	}
	q.mu.Unlock()
	if k > 0 {
		q.cond.Signal()
	}
	return k
}

func (q *mutexQueue) Poll() (Event, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

func (q *mutexQueue) PopBatch(dst []Event) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	k := 0
	for k < len(dst) {
		e, ok := q.popLocked()
		if !ok {
			break
		}
		dst[k] = e
		k++
	}
	return k
}

func (q *mutexQueue) Wait() (Event, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.popLocked()
}

func (q *mutexQueue) popLocked() (Event, bool) {
	if q.n == 0 {
		return Event{}, false
	}
	e := q.buf[q.head]
	q.buf[q.head] = Event{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return e, true
}

func (q *mutexQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// benchQueue is the surface both implementations share.
type benchQueue interface {
	Push(Event) bool
	Poll() (Event, bool)
	PushBatch([]Event) int
	PopBatch([]Event) int
	Wait() (Event, bool)
	Close()
}

// benchPingPong measures the raw per-op enqueue+dequeue cost with no
// second goroutine (no scheduler noise): push one, poll one.
func benchPingPong(b *testing.B, q benchQueue) {
	ev := Event{Type: Data}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(ev)
		q.Poll()
	}
}

// benchSPSC streams b.N events through the queue to a consumer goroutine
// parking in Wait — the capture path's actual shape.
func benchSPSC(b *testing.B, q benchQueue) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := q.Wait(); !ok {
				return
			}
		}
	}()
	ev := Event{Type: Data}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !q.Push(ev) {
			runtime.Gosched()
		}
	}
	q.Close()
	<-done
}

// benchSPSCBatch streams b.N events in batches of 64 on both sides.
func benchSPSCBatch(b *testing.B, q benchQueue) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		dst := make([]Event, 64)
		for {
			if n := q.PopBatch(dst); n == 0 {
				if _, ok := q.Wait(); !ok {
					return
				}
			}
		}
	}()
	batch := make([]Event, 64)
	for i := range batch {
		batch[i] = Event{Type: Data}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for pushed := 0; pushed < b.N; {
		n := len(batch)
		if rem := b.N - pushed; rem < n {
			n = rem
		}
		acc := q.PushBatch(batch[:n])
		pushed += acc
		if acc < n {
			runtime.Gosched()
		}
	}
	q.Close()
	<-done
}

// fillSlot writes what the engine writes per event: the header and the
// stream snapshot.
func fillSlot(ev *Event, info *flowtab.Info) {
	ev.Type = Data
	ev.Info = *info
	ev.Accounted = 1
}

// benchBurstCopy is the engine→worker hop as it was: 64 events built in a
// staging buffer, copied into the ring by PushBatch, copied out by PopBatch
// and cleared — one goroutine, no scheduler noise.
func benchBurstCopy(b *testing.B, q *Queue) {
	info := flowtab.Info{ID: 1, Chunks: 2}
	stage := make([]Event, 64)
	dst := make([]Event, 64)
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		for j := range stage {
			fillSlot(&stage[j], &info)
		}
		q.PushBatch(stage)
		clear(stage)
		n := q.PopBatch(dst)
		for j := range dst[:n] {
			sink += dst[j].Info.ID
		}
		clear(dst[:n])
	}
	_ = sink
}

// benchBurstSlots is the same hop over the slot protocol: events built in
// reserved slots, one Commit, read through a view, one Release.
func benchBurstSlots(b *testing.B, q *Queue) {
	info := flowtab.Info{ID: 1, Chunks: 2}
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		for j := 0; j < 64; j++ {
			fillSlot(q.Reserve(), &info)
		}
		q.Commit(1)
		for got := 0; got < 64; {
			v := q.View(64)
			for j := range v {
				sink += v[j].Info.ID
			}
			q.Release(len(v))
			got += len(v)
		}
	}
	_ = sink
}

// benchSPSCSlots streams b.N events across goroutines in bursts of up to 64
// over the slot protocol: Reserve/Commit on one side, View/Release with a
// WaitView park on the other.
func benchSPSCSlots(b *testing.B, q *Queue) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			v, ok := q.WaitView(64)
			if !ok {
				return
			}
			q.Release(len(v))
		}
	}()
	info := flowtab.Info{ID: 1, Chunks: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for pushed := 0; pushed < b.N; {
		n := min(64, b.N-pushed)
		for ; n > 0; n-- {
			ev := q.Reserve()
			if ev == nil {
				break
			}
			fillSlot(ev, &info)
			pushed++
		}
		q.Commit(1)
		if n > 0 {
			runtime.Gosched()
		}
	}
	q.Close()
	<-done
}

// BenchmarkEventRing compares the lock-free SPSC ring against the
// mutex+cond queue it replaced, per-event and batched, and the slot
// protocol (reserve-commit/view-release) against the copying batch calls
// (PushBatch/PopBatch) over the same ring.
func BenchmarkEventRing(b *testing.B) {
	const capacity = 4096
	b.Run("pingpong/mutex", func(b *testing.B) { benchPingPong(b, newMutexQueue(capacity)) })
	b.Run("pingpong/ring", func(b *testing.B) { benchPingPong(b, NewQueue(capacity)) })
	b.Run("spsc/mutex", func(b *testing.B) { benchSPSC(b, newMutexQueue(capacity)) })
	b.Run("spsc/ring", func(b *testing.B) { benchSPSC(b, NewQueue(capacity)) })
	b.Run("spsc-batch64/mutex", func(b *testing.B) { benchSPSCBatch(b, newMutexQueue(capacity)) })
	b.Run("spsc-batch64/ring", func(b *testing.B) { benchSPSCBatch(b, NewQueue(capacity)) })
	b.Run("spsc-batch64/reserve-commit+view-release", func(b *testing.B) { benchSPSCSlots(b, NewQueue(capacity)) })
	b.Run("burst64/PushBatch+PopBatch", func(b *testing.B) { benchBurstCopy(b, NewQueue(capacity)) })
	b.Run("burst64/reserve-commit+view-release", func(b *testing.B) { benchBurstSlots(b, NewQueue(capacity)) })
}
