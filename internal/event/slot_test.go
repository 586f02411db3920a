package event

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"scap/internal/flowtab"
	"scap/internal/mem"
)

// poison fills every field of a slot, so a slot that comes back from the
// consumer with anything left in it is caught by the zero check at the next
// Reserve.
func poison(ev *Event, id uint64) {
	*ev = Event{
		Type:       Data,
		Stream:     &flowtab.Stream{},
		Info:       flowtab.Info{ID: id, Ref: 7, Chunks: 9, HWFilter: true},
		Data:       []byte("poison"),
		HoleBefore: true,
		Last:       true,
		Accounted:  6,
		Block:      mem.Handle(3),
		Pkts:       []PacketRecord{{TS: 1}},
		EnqueueNS:  -1,
	}
}

// TestSlotOpsMatchReferenceFIFO drives one queue with a random mix of the
// slot protocol (Reserve, Commit, View, Release) and the copying veneers
// (Push, PushBatch, Poll, PopBatch) over capacities small enough that the
// cursors wrap dozens of times, and checks every step against a plain-slice
// model: what is reserved but invisible, what is published, what a view may
// show before the wrap point, the drop count of a full ring, and that every
// slot Reserve hands out is all zero.
func TestSlotOpsMatchReferenceFIFO(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		q := NewQueue(1 + r.Intn(16))
		capacity := q.Cap()
		var published, reserved []uint64
		var dropped, head uint64
		var seq uint64
		dst := make([]Event, capacity+4)
		for op := 0; op < 400; op++ {
			switch r.Intn(7) {
			case 0, 1: // Reserve
				seq++
				ev := q.Reserve()
				full := len(published)+len(reserved) == capacity
				if (ev == nil) != full {
					t.Fatalf("trial %d op %d: Reserve nil=%v with %d+%d of %d", trial, op, ev == nil, len(published), len(reserved), capacity)
				}
				if full {
					dropped++
					break
				}
				if !reflect.DeepEqual(*ev, Event{}) {
					t.Fatalf("trial %d op %d: Reserve handed out a dirty slot: %+v", trial, op, *ev)
				}
				poison(ev, seq)
				reserved = append(reserved, seq)
			case 2: // Commit
				stamp := int64(op + 1)
				if n := q.Commit(stamp); n != len(reserved) {
					t.Fatalf("trial %d op %d: Commit = %d, want %d", trial, op, n, len(reserved))
				}
				published = append(published, reserved...)
				reserved = reserved[:0]
			case 3: // View + Release of a random prefix
				max := 1 + r.Intn(capacity+2)
				v := q.View(max)
				want := min(len(published), max, capacity-int(head%uint64(capacity)))
				if len(v) != want {
					t.Fatalf("trial %d op %d: View(%d) = %d events, want %d (%d published, head %d, cap %d)",
						trial, op, max, len(v), want, len(published), head, capacity)
				}
				for i := range v {
					if v[i].Info.ID != published[i] {
						t.Fatalf("trial %d op %d: View[%d] = %d, want %d", trial, op, i, v[i].Info.ID, published[i])
					}
				}
				n := 0
				if len(v) > 0 {
					n = r.Intn(len(v) + 1)
				}
				q.Release(n)
				published = published[n:]
				head += uint64(n)
			case 4: // PushBatch behind whatever is reserved: publishes both
				n := r.Intn(capacity + 3)
				batch := make([]Event, n)
				for i := range batch {
					seq++
					poison(&batch[i], seq)
				}
				acc := q.PushBatch(batch)
				want := min(n, capacity-len(published)-len(reserved))
				if acc != want {
					t.Fatalf("trial %d op %d: PushBatch(%d) = %d, want %d", trial, op, n, acc, want)
				}
				dropped += uint64(n - acc)
				if acc > 0 {
					published = append(published, reserved...)
					reserved = reserved[:0]
				}
				for i := 0; i < acc; i++ {
					published = append(published, batch[i].Info.ID)
				}
			case 5: // PopBatch crosses the wrap point in one call
				k := 1 + r.Intn(len(dst))
				n := q.PopBatch(dst[:k])
				if want := min(k, len(published)); n != want {
					t.Fatalf("trial %d op %d: PopBatch(%d) = %d, want %d", trial, op, k, n, want)
				}
				for i := 0; i < n; i++ {
					if dst[i].Info.ID != published[i] {
						t.Fatalf("trial %d op %d: PopBatch[%d] = %d, want %d", trial, op, i, dst[i].Info.ID, published[i])
					}
				}
				published = published[n:]
				head += uint64(n)
			case 6: // Push or Poll
				if r.Intn(2) == 0 {
					seq++
					var e Event
					poison(&e, seq)
					ok := q.Push(e)
					if ok != (len(published)+len(reserved) < capacity) {
						t.Fatalf("trial %d op %d: Push ok=%v with %d+%d of %d", trial, op, ok, len(published), len(reserved), capacity)
					}
					if ok {
						published = append(append(published, reserved...), seq)
						reserved = reserved[:0]
					} else {
						dropped++
					}
				} else {
					ev, ok := q.Poll()
					if ok != (len(published) > 0) {
						t.Fatalf("trial %d op %d: Poll ok=%v with %d published", trial, op, ok, len(published))
					}
					if ok {
						if ev.Info.ID != published[0] {
							t.Fatalf("trial %d op %d: Poll = %d, want %d", trial, op, ev.Info.ID, published[0])
						}
						published = published[1:]
						head++
					}
				}
			}
			if q.Len() != len(published) {
				t.Fatalf("trial %d op %d: Len = %d, model %d", trial, op, q.Len(), len(published))
			}
			if q.Dropped() != dropped {
				t.Fatalf("trial %d op %d: Dropped = %d, model %d", trial, op, q.Dropped(), dropped)
			}
		}
	}
}

// TestCommitStampsReservedSlots: one Commit stamps every slot claimed since
// the last one, and only those.
func TestCommitStampsReservedSlots(t *testing.T) {
	q := NewQueue(8)
	q.Push(Event{Info: infoWithID(1), EnqueueNS: 5})
	q.Reserve().Info.ID = 2
	q.Reserve().Info.ID = 3
	if n := q.Commit(77); n != 2 {
		t.Fatalf("Commit = %d, want 2", n)
	}
	if n := q.Commit(88); n != 0 {
		t.Fatalf("empty Commit = %d, want 0", n)
	}
	v := q.View(8)
	got := []int64{v[0].EnqueueNS, v[1].EnqueueNS, v[2].EnqueueNS}
	if want := []int64{5, 77, 77}; !reflect.DeepEqual(got, want) {
		t.Fatalf("stamps = %v, want %v", got, want)
	}
}

// TestReleaseBeyondViewPanics: handing back slots that were never viewed
// would let the producer overwrite unread events.
func TestReleaseBeyondViewPanics(t *testing.T) {
	q := NewQueue(4)
	q.Push(Event{})
	q.View(4)
	defer func() {
		if recover() == nil {
			t.Fatal("Release(2) after a one-event view did not panic")
		}
	}()
	q.Release(2)
}

// TestCloseWithReservedSlots: slots claimed before Close are still published
// by the next Commit and stay drainable; nothing can be claimed afterwards,
// and a refused claim on a closed queue is not a ring overflow.
func TestCloseWithReservedSlots(t *testing.T) {
	q := NewQueue(8)
	q.Reserve().Info.ID = 1
	q.Reserve().Info.ID = 2
	q.Close()
	if ev := q.Reserve(); ev != nil {
		t.Fatal("Reserve succeeded on a closed queue")
	}
	if q.PushBatch(make([]Event, 2)) != 0 || q.Push(Event{}) {
		t.Fatal("push succeeded on a closed queue")
	}
	if d := q.Dropped(); d != 0 {
		t.Fatalf("Dropped = %d after refusals on a closed queue, want 0", d)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d before Commit, want 0 (reserved slots are invisible)", q.Len())
	}
	if n := q.Commit(1); n != 2 {
		t.Fatalf("Commit = %d, want 2", n)
	}
	v, ok := q.WaitView(8)
	if !ok || len(v) != 2 || v[0].Info.ID != 1 || v[1].Info.ID != 2 {
		t.Fatalf("WaitView after Close = %d events ok=%v", len(v), ok)
	}
	q.Release(2)
	if v, ok := q.WaitView(8); ok || len(v) != 0 {
		t.Fatalf("closed and drained queue still yields %d events ok=%v", len(v), ok)
	}
	if _, ok := q.Wait(); ok {
		t.Fatal("Wait on a closed and drained queue reported an event")
	}
}

// TestCommitWakesParkedConsumer: reserving slots must not wake a parked
// consumer (there is nothing it may read yet); the Commit must, exactly once
// for the whole burst.
func TestCommitWakesParkedConsumer(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		q := NewQueue(16)
		got := make(chan int, 1)
		go func() {
			v, ok := q.WaitView(16)
			if !ok {
				got <- -1
				return
			}
			n := len(v)
			q.Release(n)
			got <- n
		}()
		// Let the consumer reach its park on most iterations; the protocol
		// must hold either way.
		if iter%2 == 0 {
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 3; i++ {
			q.Reserve().Info.ID = uint64(i + 1)
		}
		select {
		case n := <-got:
			t.Fatalf("iteration %d: consumer saw %d events before Commit", iter, n)
		case <-time.After(2 * time.Millisecond):
		}
		q.Commit(1)
		select {
		case n := <-got:
			if n != 3 {
				t.Fatalf("iteration %d: woke with %d events, want 3", iter, n)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: consumer never woke after Commit", iter)
		}
	}
}

// TestSlotProducerConsumerRace is the SPSC discipline of the slot protocol
// under -race: the producer builds events in reserved slots and commits
// random-size bursts (now and then pushing a copied batch behind them), the
// consumer dispatches from views, parks in WaitView when the ring runs dry
// and sometimes drains by copy. Checks strict FIFO order, that a viewed slot
// is never overwritten before its Release, and that received + refused
// equals everything offered.
func TestSlotProducerConsumerRace(t *testing.T) {
	q := NewQueue(64)
	const total = 200000
	var wg sync.WaitGroup
	var received uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(2))
		dst := make([]Event, 16)
		var last uint64
		check := func(ev *Event) {
			if ev.Info.ID <= last {
				t.Errorf("order violation: %d after %d", ev.Info.ID, last)
			}
			if ev.Info.Chunks != ev.Info.ID*3 || ev.EnqueueNS == 0 {
				t.Errorf("torn event %d: chunks %d stamp %d", ev.Info.ID, ev.Info.Chunks, ev.EnqueueNS)
			}
			last = ev.Info.ID
			received++
		}
		for {
			if r.Intn(8) == 0 {
				n := q.PopBatch(dst)
				for i := 0; i < n; i++ {
					check(&dst[i])
				}
				continue
			}
			v := q.View(1 + r.Intn(32))
			if len(v) == 0 {
				var ok bool
				if v, ok = q.WaitView(32); !ok {
					return
				}
			}
			for i := range v {
				check(&v[i])
			}
			// Re-read after the walk: the producer must not have touched a
			// slot the consumer still holds.
			for i := range v {
				if v[i].Info.Chunks != v[i].Info.ID*3 {
					t.Errorf("viewed slot overwritten before Release")
				}
			}
			q.Release(len(v))
		}
	}()
	r := rand.New(rand.NewSource(1))
	var refused, id uint64
	for id < total {
		if r.Intn(10) == 0 {
			batch := make([]Event, 1+r.Intn(8))
			for i := range batch {
				id++
				batch[i] = Event{Info: flowtab.Info{ID: id, Chunks: id * 3}, EnqueueNS: 1}
			}
			refused += uint64(len(batch) - q.PushBatch(batch))
			continue
		}
		for burst := 1 + r.Intn(24); burst > 0; burst-- {
			id++
			ev := q.Reserve()
			if ev == nil {
				refused++
				continue
			}
			ev.Info.ID, ev.Info.Chunks = id, id*3
		}
		q.Commit(1)
	}
	q.Close()
	wg.Wait()
	if received+refused != id {
		t.Fatalf("received %d + refused %d != offered %d", received, refused, id)
	}
	if q.Dropped() != refused {
		t.Fatalf("Dropped = %d, producer saw %d refusals", q.Dropped(), refused)
	}
}
