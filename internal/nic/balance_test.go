package nic

import (
	"net/netip"
	"testing"

	"scap/internal/pkt"
)

func synFrame(k pkt.FlowKey) []byte {
	return pkt.BuildTCP(pkt.TCPSpec{Key: k, Seq: 1, Flags: pkt.FlagSYN})
}

func ackFrame(k pkt.FlowKey, seq uint32) []byte {
	return pkt.BuildTCP(pkt.TCPSpec{Key: k, Seq: seq, Flags: pkt.FlagACK, Payload: []byte("data")})
}

func finFrame(k pkt.FlowKey) []byte {
	return pkt.BuildTCP(pkt.TCPSpec{Key: k, Seq: 99, Flags: pkt.FlagFIN | pkt.FlagACK})
}

func flowN(i int) pkt.FlowKey {
	return pkt.FlowKey{
		SrcIP:   netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1}),
		DstIP:   netip.AddrFrom4([4]byte{192, 168, byte(i), 2}),
		SrcPort: uint16(10000 + i), DstPort: 80, Proto: pkt.ProtoTCP,
	}
}

func TestBalancerSpreadsHotQueue(t *testing.T) {
	n := New(Config{Queues: 4, DynamicBalance: true})
	// Find many flows that RSS maps to the same queue, then offer them:
	// the balancer must redirect the overflow elsewhere.
	hot := -1
	var offered, stayed int
	for i := 0; i < 4000 && offered < 400; i++ {
		k := flowN(i)
		q := n.QueueFor(k)
		if hot < 0 {
			hot = q
		}
		if q != hot {
			continue
		}
		offered++
		got := n.Receive(synFrame(k), int64(i)*1000)
		if got < 0 {
			t.Fatalf("SYN dropped for %v", k)
		}
		if got == hot {
			stayed++
		}
	}
	if offered < 100 {
		t.Fatalf("could not build a hot queue (offered %d)", offered)
	}
	if stayed > offered/2 {
		t.Errorf("%d of %d hot-queue flows stayed — balancer inactive", stayed, offered)
	}
	if n.lb.Redirects == 0 {
		t.Error("no redirects recorded")
	}
}

func TestBalancerKeepsConnectionTogether(t *testing.T) {
	n := New(Config{Queues: 4, DynamicBalance: true})
	// Preload imbalance on one queue.
	hotKey := flowN(0)
	hot := n.QueueFor(hotKey)
	loaded := 0
	for i := 0; i < 4000 && loaded < 100; i++ {
		k := flowN(i)
		if n.QueueFor(k) != hot {
			continue
		}
		n.Receive(synFrame(k), int64(i))
		loaded++
	}
	// A fresh flow destined for the hot queue gets redirected; all of its
	// later packets — both directions — must follow it.
	var fresh pkt.FlowKey
	for i := 5000; ; i++ {
		if k := flowN(i); n.QueueFor(k) == hot {
			fresh = k
			break
		}
	}
	q0 := n.Receive(synFrame(fresh), 1e6)
	if q0 < 0 {
		t.Fatal("SYN dropped")
	}
	if q1 := n.Receive(ackFrame(fresh, 2), 1e6+1); q1 != q0 {
		t.Errorf("data packet on queue %d, SYN went to %d", q1, q0)
	}
	if q2 := n.Receive(ackFrame(fresh.Reverse(), 500), 1e6+2); q2 != q0 {
		t.Errorf("reverse packet on queue %d, want %d", q2, q0)
	}
	// First FIN must not break the assignment.
	if q3 := n.Receive(finFrame(fresh), 1e6+3); q3 != q0 {
		t.Errorf("first FIN on queue %d, want %d", q3, q0)
	}
	if q4 := n.Receive(ackFrame(fresh.Reverse(), 600), 1e6+4); q4 != q0 {
		t.Errorf("post-FIN reverse data on queue %d, want %d", q4, q0)
	}
	// Second FIN releases the redirect.
	n.Receive(finFrame(fresh.Reverse()), 1e6+5)
	if _, ok := n.lb.flows[canonOf(fresh)]; ok {
		t.Error("connection still tracked after both FINs")
	}
}

func canonOf(k pkt.FlowKey) pkt.FlowKey {
	c, _ := k.Canonical()
	return c
}

func TestBalancerRSTReleasesImmediately(t *testing.T) {
	n := New(Config{Queues: 2, DynamicBalance: true})
	k := flowN(1)
	n.Receive(synFrame(k), 1)
	rst := pkt.BuildTCP(pkt.TCPSpec{Key: k, Seq: 5, Flags: pkt.FlagRST})
	n.Receive(rst, 2)
	if _, ok := n.lb.flows[canonOf(k)]; ok {
		t.Error("connection still tracked after RST")
	}
}

func TestBalancerDisabledSingleQueue(t *testing.T) {
	n := New(Config{Queues: 1, DynamicBalance: true})
	if n.lb != nil {
		t.Error("balancer active with one queue")
	}
}

// TestBalancerForgetsUnclosedConnections is the SYN-flood case: connections
// that never send RST or a second FIN used to stay in the balancer's table
// forever, growing it without bound and inflating the per-queue counts
// every later admission is judged against.
func TestBalancerForgetsUnclosedConnections(t *testing.T) {
	// The rings overflow at once and stay full; the balancer runs before the
	// ring, so the test never polls.
	n := New(Config{Queues: 4, QueueDepth: 1, DynamicBalance: true, PerfectFilterCap: 64})
	const flood = 200000
	scan := func(i int) pkt.FlowKey {
		return pkt.FlowKey{
			SrcIP:   netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			DstIP:   netip.AddrFrom4([4]byte{192, 168, 0, 1}),
			SrcPort: uint16(1024 + i%50000), DstPort: 22, Proto: pkt.ProtoTCP,
		}
	}
	ts := int64(1)
	for i := 0; i < flood; i++ {
		ts += 1000
		n.Receive(synFrame(scan(i)), ts)
	}
	redirected := 0
	for _, r := range n.lb.recs {
		if r.live && r.redirected {
			redirected++
		}
	}
	if got := len(n.lb.flows); got != flood {
		t.Fatalf("after the flood the balancer tracks %d connections, want %d", got, flood)
	}
	// Past the horizon, a trickle of new SYNs: each admission sweeps a few
	// old records, so the table drains without any one admission walking it.
	ts += balanceHorizon
	const trickle = flood / 2
	for i := 0; i < trickle; i++ {
		ts += 1000
		k := scan(flood + i)
		n.Receive(synFrame(k), ts)
		n.Receive(pkt.BuildTCP(pkt.TCPSpec{Key: k, Flags: pkt.FlagRST}), ts)
	}
	if got := len(n.lb.flows); got > redirected {
		t.Errorf("balancer still tracks %d connections after the horizon, want only the %d that own redirect filters", got, redirected)
	}
	total := 0
	for _, c := range n.lb.counts {
		total += c
	}
	if total > redirected {
		t.Errorf("per-queue counts sum to %d after the flood aged out, want at most %d", total, redirected)
	}
	if len(n.lb.recs) > flood+8 {
		t.Errorf("record slab grew to %d for %d connections", len(n.lb.recs), flood)
	}
}

// TestBalancerNeverAgesRedirectedConnection: a redirected connection owns
// its filter pair, so however long it lives both directions stay on the
// queue the balancer chose; it goes when the pair leaves the filter table.
func TestBalancerNeverAgesRedirectedConnection(t *testing.T) {
	n := New(Config{Queues: 4, DynamicBalance: true})
	hot := n.QueueFor(flowN(0))
	var long pkt.FlowKey
	target := -1
	ts := int64(1)
	for i := 0; target < 0; i++ {
		k := flowN(i)
		if n.QueueFor(k) != hot {
			continue
		}
		ts += 1000
		if q := n.Receive(synFrame(k), ts); q != hot {
			long, target = k, q
		}
	}
	// Far past the horizon, with admissions to drive the sweep all the way
	// round the table several times.
	ts += 3 * balanceHorizon
	for i := 0; i < 2000; i++ {
		ts += 1000
		n.Receive(synFrame(flowN(20000+i)), ts)
	}
	if q := n.Receive(ackFrame(long, 2), ts+1); q != target {
		t.Errorf("forward direction on queue %d after the horizon, want redirect queue %d", q, target)
	}
	if q := n.Receive(ackFrame(long.Reverse(), 2), ts+2); q != target {
		t.Errorf("reverse direction on queue %d after the horizon, want redirect queue %d", q, target)
	}
	if _, ok := n.lb.flows[canonOf(long)]; !ok {
		t.Fatal("redirected connection was aged out of the balancer")
	}
	// An engine clearing the tuple's filters takes the redirect with it: the
	// balancer lets go of the connection and removes the pair's other half,
	// so both directions fall back to RSS together.
	n.RemoveFilters(long, false)
	if _, ok := n.lb.flows[canonOf(long)]; ok {
		t.Error("connection still tracked after its redirect filters were removed")
	}
	if q := n.Receive(ackFrame(long.Reverse(), 3), ts+3); q != hot {
		t.Errorf("reverse direction on queue %d after its pair was removed, want RSS queue %d", q, hot)
	}
}
