package nic

import "scap/internal/pkt"

// balancer implements the paper's dynamic load balancing (§2.4): RSS's
// static hash can leave cores with uneven stream counts, so when a new
// connection lands on a queue that holds a disproportionate share of the
// active streams, an FDIR queue filter redirects the connection (both
// directions) to the least-loaded queue.
//
// A connection is forgotten at its RST or second FIN. One that ends
// without either — an idle timeout, a SYN scan — is aged out after
// balanceHorizon, provided it carries no steering state: forgetting a
// connection left on its RSS queue only gives its count back, and a later
// SYN re-admits it to the same queue. A redirected connection owns a filter
// pair and is never aged (that would split it back onto its RSS queue
// mid-stream); it goes at close, or when its pair leaves the filter table.
type balancer struct {
	counts []int // active connections per queue
	// flows maps a canonical key to its record's index in recs. Records live
	// in a slab so the age sweep has a cursor to advance: a map cannot be
	// walked a few entries at a time.
	flows map[pkt.FlowKey]int32
	recs  []flowAssign
	free  int32 // head of the free-record list through flowAssign.next, -1 when empty
	sweep int   // next record the age sweep looks at
	now   int64 // latest admission time seen
	// imbalanceFactor: a queue is overloaded when its active-stream count
	// exceeds factor × average (plus slack for small counts).
	factor float64
	slack  int
	// Redirects counts installed redirections (stats/tests).
	Redirects uint64
}

// flowAssign is one tracked connection.
type flowAssign struct {
	key        pkt.FlowKey // canonical
	at         int64       // admission time (virtual)
	next       int32       // free-list link while !live
	queue      int8
	fins       uint8
	redirected bool // owns a redirect filter pair
	live       bool
}

// balanceHorizon is how long an un-redirected connection is tracked without
// closing — the horizon the redirect filters' Deadline uses.
const balanceHorizon = int64(60e9)

// balanceSweep is how many records one admission examines for age. More
// than one keeps the table bounded under a SYN flood: with k per admission
// it settles below k/(k-1) × the admissions of one horizon.
const balanceSweep = 4

func newBalancer(queues int) *balancer {
	return &balancer{
		counts: make([]int, queues),
		flows:  make(map[pkt.FlowKey]int32),
		free:   -1,
		factor: 1.25,
		slack:  8,
	}
}

// admit records a new connection headed for queue q (after RSS and any
// redirect filter) and returns the queue it should use. If q is overloaded
// it picks the coldest queue and installs redirect filters via n.
func (b *balancer) admit(n *NIC, key pkt.FlowKey, q int, ts int64) int {
	ck, _ := key.Canonical()
	if i, ok := b.flows[ck]; ok {
		return int(b.recs[i].queue)
	}
	if ts > b.now {
		b.now = ts
	}
	b.expire()
	total := 0
	coldest := 0
	for i, c := range b.counts {
		total += c
		if c < b.counts[coldest] {
			coldest = i
		}
	}
	avg := float64(total) / float64(len(b.counts))
	redirected := false
	if float64(b.counts[q]) > b.factor*avg+float64(b.slack) && coldest != q {
		// Redirect the whole connection to the coldest queue. If the
		// filter table is full the add fails silently and the stream
		// stays where RSS put it.
		spec := FilterSpec{Key: key, Action: ActionQueue, Queue: coldest, Deadline: ts + balanceHorizon}
		if n.filters.addPair(spec) == nil {
			b.Redirects++
			q = coldest
			redirected = true
		}
	}
	b.counts[q]++
	rec := flowAssign{key: ck, at: ts, queue: int8(q), redirected: redirected, live: true}
	i := b.free
	if i >= 0 {
		b.free = b.recs[i].next
		b.recs[i] = rec
	} else {
		i = int32(len(b.recs))
		b.recs = append(b.recs, rec)
	}
	b.flows[ck] = i
	return q
}

// expire advances the age sweep by balanceSweep records, forgetting the
// un-redirected connections admitted more than balanceHorizon ago.
func (b *balancer) expire() {
	for k := 0; k < balanceSweep && k < len(b.recs); k++ {
		if b.sweep >= len(b.recs) {
			b.sweep = 0
		}
		i := int32(b.sweep)
		b.sweep++
		if r := &b.recs[i]; r.live && !r.redirected && b.now-r.at > balanceHorizon {
			b.forget(i)
		}
	}
}

// forget drops record i and gives its queue's count back.
func (b *balancer) forget(i int32) {
	r := &b.recs[i]
	delete(b.flows, r.key)
	if b.counts[r.queue] > 0 {
		b.counts[r.queue]--
	}
	*r = flowAssign{next: b.free}
	b.free = i
}

// close releases a connection's accounting. A connection ends at its RST
// or its second FIN (both directions closed); removing the redirect on the
// first FIN would split the remaining half-connection back onto the RSS
// queue mid-stream.
func (b *balancer) close(n *NIC, key pkt.FlowKey, rst bool) {
	ck, _ := key.Canonical()
	i, ok := b.flows[ck]
	if !ok {
		return
	}
	r := &b.recs[i]
	if !rst {
		r.fins++
		if r.fins < 2 {
			return
		}
	}
	redirected := r.redirected
	b.forget(i)
	if redirected {
		n.removeRedirectsLocked(key)
	}
}

// filtersGone is called when key's perfect filters left the table by
// eviction or removal. If a redirected connection lost half its pair that
// way, it is forgotten and the other half removed, so both directions fall
// back to their RSS queue together.
func (b *balancer) filtersGone(n *NIC, key pkt.FlowKey) {
	ck, _ := key.Canonical()
	if i, ok := b.flows[ck]; ok && b.recs[i].redirected {
		b.forget(i)
		n.removeRedirectsLocked(key)
	}
}

// addPair installs queue-redirect filters for both directions of key.
func (t *filterTable) addPair(spec FilterSpec) error {
	s1 := spec
	if err := t.add(&s1); err != nil {
		return err
	}
	s2 := spec
	s2.Key = spec.Key.Reverse()
	if err := t.add(&s2); err != nil {
		t.removeKey(s1.Key, false)
		return err
	}
	return nil
}

// removeRedirectsLocked drops ActionQueue filters for both directions of
// key, leaving any drop filters (cutoff) in place. Callers hold n.mu (the
// balancer runs inside Receive).
func (n *NIC) removeRedirectsLocked(key pkt.FlowKey) {
	for _, k := range []pkt.FlowKey{key, key.Reverse()} {
		specs := n.filters.perfect[k]
		kept := specs[:0]
		removed := 0
		for _, s := range specs {
			if s.Action == ActionQueue {
				removed++
			} else {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			delete(n.filters.perfect, k)
		} else {
			n.filters.perfect[k] = kept
		}
		n.filters.nPerfect -= removed
	}
}
