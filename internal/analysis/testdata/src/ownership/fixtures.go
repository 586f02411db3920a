// Package ownership exercises the goroutine-ownership analyzer: roles
// propagating from //scap:goroutine entry points over call edges, checked
// against //scap:owner, //scap:spsc produce/consume, and //scap:onlyrole
// contracts.
package ownership

// ring mirrors the shape of event.Queue: a single-producer single-
// consumer ring whose two sides belong to different goroutine roles.
//
//scap:spsc producer=producer consumer=consumer
type ring struct {
	buf        []int
	head, tail uint64
}

//scap:produce
func (r *ring) push(v int) { r.buf[r.tail%uint64(len(r.buf))] = v; r.tail++ }

//scap:consume
func (r *ring) pop() (int, bool) {
	if r.head == r.tail {
		return 0, false
	}
	v := r.buf[r.head%uint64(len(r.buf))]
	r.head++
	return v, true
}

// looper mirrors Engine: a single-writer struct owned by one role.
//
//scap:owner looper
type looper struct {
	n int
	r *ring
}

func (l *looper) step() { l.n++ }

// snapshot is individually audited for cross-goroutine access.
//
//scap:anyrole n is only read, staleness is acceptable
func (l *looper) snapshot() int { return l.n }

//scap:goroutine producer
func produceLoop(r *ring) {
	r.push(1)           // fine: the producer role produces
	go consumeLoop(r)   // go edges do not leak the producer role
	helperProduce(r, 2) // fine: still the producer role, one hop down
}

// helperProduce is unannotated; it inherits whatever roles reach it.
func helperProduce(r *ring, v int) { r.push(v) }

//scap:goroutine consumer
func consumeLoop(r *ring) {
	r.pop()       // fine: the consumer role consumes
	r.push(9)     // want ownership "producer-side of SPSC ring"
	helperPop(r)  // fine transitively
	helperPush(r) // the diagnostic lands inside helperPush, at the push call
}

func helperPop(r *ring) { r.pop() }

func helperPush(r *ring) {
	r.push(3) // want ownership "producer-side of SPSC ring"
}

//scap:goroutine looper
func ownerLoop(l *looper) {
	l.step() // fine: the owning role
}

//scap:goroutine consumer
func rogue(l *looper) {
	l.step()         // want ownership "owned by role looper"
	_ = l.snapshot() // fine: //scap:anyrole
}

// setup is not reachable from any //scap:goroutine entry point, so it
// carries no role and may touch anything (construction happens before
// the goroutines exist).
func setup() *looper {
	l := &looper{r: &ring{buf: make([]int, 8)}}
	l.step()
	l.r.push(0)
	return l
}

// registerOnly may only be reached from the producer role.
//
//scap:onlyrole producer
func registerOnly() {}

//scap:goroutine consumer
func consumeLoop2() {
	registerOnly() // want ownership "restricted to role"
}

// phantomOnly names a role that has no entry point anywhere.
//
//scap:onlyrole phantom
func phantomOnly() {} // want ownership "no //scap:goroutine entry point"

// orphan references an spsc type that is not declared.
//
//scap:produce ghostRing
func orphan() {} // want ownership "unknown //scap:spsc type"

// unowned is missing its role argument.
//
//scap:owner
type unowned struct{ n int } // want ownership "missing role"

// The slot protocol of event.Queue: the producer builds events in slots it
// reserves and publishes them with one commit; the consumer borrows the
// published slots with view and hands them back with release. The slots
// between release and reserve are the only hand-over, so each pair belongs
// to exactly one side.

//scap:produce
func (r *ring) reserve() *int { p := &r.buf[r.tail%uint64(len(r.buf))]; r.tail++; return p }

//scap:produce
func (r *ring) commit() {}

//scap:consume
func (r *ring) view() []int { return r.buf[r.head%uint64(len(r.buf)):] }

//scap:consume
func (r *ring) release(n int) { r.head += uint64(n) }

//scap:goroutine producer
func stageLoop(r *ring) {
	*r.reserve() = 1 // fine: the producer builds in place
	r.commit()
	r.release(1) // want ownership "consumer-side of SPSC ring"
}

//scap:goroutine consumer
func dispatchLoop(r *ring) {
	v := r.view() // fine: the consumer reads the slots it was handed
	r.release(len(v))
	*r.reserve() = 2 // want ownership "producer-side of SPSC ring"
	r.commit()       // want ownership "producer-side of SPSC ring"
}
