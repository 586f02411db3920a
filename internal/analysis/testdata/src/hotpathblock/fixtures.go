// Package hotpathblock exercises the blocking-call analyzer: functions
// marked //scap:hotpath, and everything they transitively call, must not
// block.
package hotpathblock

import (
	"os"
	"sync"
	"time"
)

type q struct {
	ch   chan int
	wake chan struct{}
}

//scap:hotpath
func (s *q) push(v int) {
	s.ch <- v // want hotpathblock "channel send"
	s.wakeup()
}

// wakeup is the sanctioned non-blocking notify idiom: a select with a
// default case never parks, so neither the select nor its case send is
// flagged.
func (s *q) wakeup() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

//scap:hotpath
func (s *q) drainOne() int {
	return <-s.ch // want hotpathblock "channel receive"
}

// parkUntil is cold code that blocks; it becomes a finding only because
// poll below pulls it onto the hot path.
func (s *q) parkUntil() {
	time.Sleep(time.Millisecond) // want hotpathblock "time.Sleep"
	select {                     // want hotpathblock "blocking select"
	case <-s.ch:
	case <-s.wake:
	}
}

//scap:hotpath
func (s *q) poll() {
	if len(s.ch) == 0 {
		s.parkUntil()
	}
	s.persist()
}

func (s *q) persist() {
	_ = os.WriteFile("spill", nil, 0o644) // want hotpathblock "call into os"
}

//scap:hotpath
func (s *q) flushAll() {
	for v := range s.ch { // want hotpathblock "range over channel"
		_ = v
	}
}

//scap:hotpath
func barrier(wg *sync.WaitGroup) {
	wg.Wait() // want hotpathblock "sync.WaitGroup.Wait"
}

// cold is not reachable from any //scap:hotpath function, so its blocking
// receive is fine; spawn launching it with go does not pull it in.
func (s *q) cold() { <-s.wake }

//scap:hotpath
func (s *q) spawn() {
	go s.cold()
	go func() {
		<-s.wake // the goroutine body runs elsewhere: not a finding
	}()
}

// ring holds the lock cases: acquiring a sync mutex is blocking wherever
// the hot path reaches it.
type ring struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// snapshot read-locks an RWMutex on the hot path.
//
//scap:hotpath
func (r *ring) snapshot() int {
	r.rw.RLock() // want hotpathblock "sync.RWMutex.RLock on the hot path"
	defer r.rw.RUnlock()
	return r.n
}

// tryPush still serializes when the TryLock succeeds.
//
//scap:hotpath
func (r *ring) tryPush(v int) bool {
	if r.mu.TryLock() { // want hotpathblock "sync.Mutex.TryLock"
		r.n = v
		r.mu.Unlock()
		return true
	}
	return false
}

// padded embeds its mutex; the promoted method must still be resolved.
type padded struct {
	sync.Mutex
	n int
}

//scap:hotpath
func (p *padded) bump() {
	p.Lock() // want hotpathblock "sync.Mutex.Lock on the hot path \\(in //scap:hotpath padded.bump\\)"
	p.n++
	p.Unlock()
}

// record is unmarked code that locks; publish pulls it onto the hot path —
// the mutex-in-a-callee case a per-function check cannot see.
func (r *ring) record(v int) {
	r.mu.Lock() // want hotpathblock "sync.Mutex.Lock on the hot path \\(reached from //scap:hotpath ring.publish → ring.record\\)"
	r.n = v
	r.mu.Unlock()
}

//scap:hotpath
func (r *ring) publish(v int) { r.record(v) }

// reset is unreachable from the hot path: locking is fine there.
func (r *ring) reset() {
	r.mu.Lock()
	r.n = 0
	r.mu.Unlock()
}

// audited documents a vetted exception with a justification.
//
//scap:hotpath
func (r *ring) audited() {
	r.mu.Lock() //scaplint:ignore hotpathblock audited: uncontended startup-only fallback
	r.n++
	r.mu.Unlock()
}

// fakeLock has Lock/Unlock methods but is not a sync mutex; acquiring it
// must not be flagged.
type fakeLock struct{ held bool }

func (f *fakeLock) Lock()   { f.held = true }
func (f *fakeLock) Unlock() { f.held = false }

//scap:hotpath
func fake(f *fakeLock) {
	f.Lock()
	f.Unlock()
}
