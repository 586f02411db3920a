package nic

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"scap/internal/pkt"
)

func key4(a string, ap uint16, b string, bp uint16) pkt.FlowKey {
	return pkt.FlowKey{
		SrcIP: pkt.MustAddr(a), DstIP: pkt.MustAddr(b),
		SrcPort: ap, DstPort: bp, Proto: pkt.ProtoTCP,
	}
}

// TestToeplitzKnownVectors checks the hash against the Microsoft RSS
// verification suite values for the default key.
func TestToeplitzKnownVectors(t *testing.T) {
	cases := []struct {
		src  string
		sp   uint16
		dst  string
		dp   uint16
		want uint32
	}{
		{"66.9.149.187", 2794, "161.142.100.80", 1766, 0x51ccc178},
		{"199.92.111.2", 14230, "65.69.140.83", 4739, 0xc626b0ea},
		{"24.19.198.95", 12898, "12.22.207.184", 38024, 0x5c2b394a},
		{"38.27.205.30", 48228, "209.142.163.6", 2217, 0xafc7327f},
		{"153.39.163.191", 44251, "202.188.127.2", 1303, 0x10e828a2},
	}
	table := newRSSTable(&DefaultRSSKey)
	for _, c := range cases {
		got := RSSHash(&DefaultRSSKey, pkt.MustAddr(c.src), pkt.MustAddr(c.dst), c.sp, c.dp, true)
		if got != c.want {
			t.Errorf("RSSHash(%s:%d > %s:%d) = %#08x, want %#08x",
				c.src, c.sp, c.dst, c.dp, got, c.want)
		}
		if got := tableHash(table, pkt.MustAddr(c.src), pkt.MustAddr(c.dst), c.sp, c.dp); got != c.want {
			t.Errorf("table hash(%s:%d > %s:%d) = %#08x, want %#08x",
				c.src, c.sp, c.dst, c.dp, got, c.want)
		}
	}
}

// tableHash is RSSHash for a TCP/UDP tuple computed through the table.
func tableHash(t *rssTable, src, dst netip.Addr, sp, dp uint16) uint32 {
	var buf [rssInputMax]byte
	return t.hash(buf[:rssTuple(&buf, src, dst, sp, dp, true)])
}

// TestTableMatchesBitSerial is the property the steering rests on: for any
// key and any input of an RSS tuple's length (IPv4 or IPv6, with or without
// ports), the table computes the bit-serial Toeplitz hash.
func TestTableMatchesBitSerial(t *testing.T) {
	prop := func(key RSSKey, input [rssInputMax]byte) bool {
		table := newRSSTable(&key)
		for _, n := range []int{8, 12, 32, 36} {
			if table.hash(input[:n]) != Toeplitz(&key, input[:n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricKeyProperty(t *testing.T) {
	k := SymmetricRSSKey(0x6d5a)
	table := newRSSTable(&k)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		var a, b [4]byte
		r.Read(a[:])
		r.Read(b[:])
		sp, dp := uint16(r.Uint32()), uint16(r.Uint32())
		h1 := RSSHash(&k, netip.AddrFrom4(a), netip.AddrFrom4(b), sp, dp, true)
		h2 := RSSHash(&k, netip.AddrFrom4(b), netip.AddrFrom4(a), dp, sp, true)
		if h1 != h2 {
			t.Fatalf("symmetric key not symmetric: %v:%d <-> %v:%d (%#x vs %#x)",
				a, sp, b, dp, h1, h2)
		}
		t1 := tableHash(table, netip.AddrFrom4(a), netip.AddrFrom4(b), sp, dp)
		t2 := tableHash(table, netip.AddrFrom4(b), netip.AddrFrom4(a), dp, sp)
		if t1 != h1 || t2 != h1 {
			t.Fatalf("table hash of %v:%d <-> %v:%d = %#x / %#x, bit-serial %#x",
				a, sp, b, dp, t1, t2, h1)
		}
	}
}

func TestDefaultKeyIsNotSymmetric(t *testing.T) {
	// Sanity check that symmetry is a property of the key, not the hash.
	h1 := RSSHash(&DefaultRSSKey, pkt.MustAddr("1.2.3.4"), pkt.MustAddr("5.6.7.8"), 100, 200, true)
	h2 := RSSHash(&DefaultRSSKey, pkt.MustAddr("5.6.7.8"), pkt.MustAddr("1.2.3.4"), 200, 100, true)
	if h1 == h2 {
		t.Skip("coincidental symmetry for this tuple")
	}
}

func TestBothDirectionsSameQueue(t *testing.T) {
	n := New(Config{Queues: 8})
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		var a, b [4]byte
		r.Read(a[:])
		r.Read(b[:])
		k := pkt.FlowKey{
			SrcIP: netip.AddrFrom4(a), DstIP: netip.AddrFrom4(b),
			SrcPort: uint16(r.Uint32()), DstPort: uint16(r.Uint32()),
			Proto: pkt.ProtoTCP,
		}
		if n.QueueFor(k) != n.QueueFor(k.Reverse()) {
			t.Fatalf("directions of %v map to different queues", k)
		}
	}
}

func TestReceiveAndPoll(t *testing.T) {
	n := New(Config{Queues: 4})
	frame := pkt.BuildTCP(pkt.TCPSpec{Key: key4("10.0.0.1", 1234, "10.0.0.2", 80), Flags: pkt.FlagSYN})
	q := n.Receive(frame, 42)
	if q < 0 {
		t.Fatal("frame dropped unexpectedly")
	}
	f, ok := n.Poll(q)
	if !ok || f.TS != 42 {
		t.Fatalf("Poll = %v, %v", f, ok)
	}
	if _, ok := n.Poll(q); ok {
		t.Error("queue should be empty")
	}
	if s := n.Stats(); s.Received != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	n := New(Config{Queues: 1, QueueDepth: 4})
	frame := pkt.BuildTCP(pkt.TCPSpec{Key: key4("10.0.0.1", 1, "10.0.0.2", 2)})
	for i := 0; i < 10; i++ {
		n.Receive(frame, int64(i))
	}
	if s := n.Stats(); s.DroppedRing != 6 {
		t.Errorf("DroppedRing = %d, want 6", s.DroppedRing)
	}
	if n.Highwater(0) != 4 {
		t.Errorf("highwater = %d, want 4", n.Highwater(0))
	}
}

func TestDecodeFailureCounted(t *testing.T) {
	n := New(Config{Queues: 1})
	if q := n.Receive([]byte{1, 2, 3}, 0); q != -1 {
		t.Error("garbage frame accepted")
	}
	if s := n.Stats(); s.DecodeFailures != 1 {
		t.Errorf("DecodeFailures = %d", s.DecodeFailures)
	}
}

func TestDropFilterSubzeroCopy(t *testing.T) {
	n := New(Config{Queues: 2})
	k := key4("10.0.0.1", 5555, "10.0.0.2", 80)

	// Install the paper's per-stream pair: drop ACK-only and ACK|PSH data
	// packets, let RST/FIN through.
	for _, flags := range []uint8{pkt.FlagACK, pkt.FlagACK | pkt.FlagPSH} {
		if _, _, err := n.AddFilter(FilterSpec{Key: k, Flex: FlexOnlyFlags(flags), Action: ActionDrop}); err != nil {
			t.Fatal(err)
		}
	}

	ack := pkt.BuildTCP(pkt.TCPSpec{Key: k, Flags: pkt.FlagACK})
	data := pkt.BuildTCP(pkt.TCPSpec{Key: k, Flags: pkt.FlagACK | pkt.FlagPSH, Payload: []byte("body")})
	fin := pkt.BuildTCP(pkt.TCPSpec{Key: k, Flags: pkt.FlagFIN | pkt.FlagACK})
	rst := pkt.BuildTCP(pkt.TCPSpec{Key: k, Flags: pkt.FlagRST})
	rev := pkt.BuildTCP(pkt.TCPSpec{Key: k.Reverse(), Flags: pkt.FlagACK})

	if q := n.Receive(ack, 0); q != -1 {
		t.Error("ACK-only packet not dropped at NIC")
	}
	if q := n.Receive(data, 0); q != -1 {
		t.Error("ACK|PSH data packet not dropped at NIC")
	}
	if q := n.Receive(fin, 0); q < 0 {
		t.Error("FIN packet dropped — stream termination would be lost")
	}
	if q := n.Receive(rst, 0); q < 0 {
		t.Error("RST packet dropped")
	}
	if q := n.Receive(rev, 0); q < 0 {
		t.Error("reverse direction dropped without a filter")
	}
	if s := n.Stats(); s.DroppedFilter != 2 {
		t.Errorf("DroppedFilter = %d, want 2", s.DroppedFilter)
	}
}

func TestQueueRedirectFilter(t *testing.T) {
	n := New(Config{Queues: 8})
	k := key4("10.9.9.9", 1000, "10.8.8.8", 80)
	natural := n.QueueFor(k)
	target := (natural + 3) % 8
	if _, _, err := n.AddFilter(FilterSpec{Key: k, Action: ActionQueue, Queue: target}); err != nil {
		t.Fatal(err)
	}
	frame := pkt.BuildTCP(pkt.TCPSpec{Key: k, Flags: pkt.FlagACK})
	if q := n.Receive(frame, 0); q != target {
		t.Errorf("redirect landed on queue %d, want %d", q, target)
	}
	if s := n.Stats(); s.Redirected != 1 {
		t.Errorf("Redirected = %d", s.Redirected)
	}
}

func TestFilterRemoval(t *testing.T) {
	n := New(Config{Queues: 1})
	k := key4("1.1.1.1", 1, "2.2.2.2", 2)
	n.AddFilter(FilterSpec{Key: k, Flex: FlexOnlyFlags(pkt.FlagACK), Action: ActionDrop})
	n.AddFilter(FilterSpec{Key: k, Flex: FlexOnlyFlags(pkt.FlagACK | pkt.FlagPSH), Action: ActionDrop})
	if p, _ := n.FilterCount(); p != 2 {
		t.Fatalf("perfect count = %d", p)
	}
	if removed := n.RemoveFilters(k, false); removed != 2 {
		t.Errorf("removed = %d, want 2", removed)
	}
	frame := pkt.BuildTCP(pkt.TCPSpec{Key: k, Flags: pkt.FlagACK})
	if q := n.Receive(frame, 0); q < 0 {
		t.Error("packet dropped after filter removal")
	}
}

func TestFilterTableEviction(t *testing.T) {
	n := New(Config{Queues: 1, PerfectFilterCap: 4})
	keys := make([]pkt.FlowKey, 5)
	for i := range keys {
		keys[i] = key4("10.0.0.1", uint16(1000+i), "10.0.0.2", 80)
	}
	for i := 0; i < 4; i++ {
		if _, evicted, err := n.AddFilter(FilterSpec{Key: keys[i], Action: ActionDrop, Deadline: int64(100 + i)}); err != nil || evicted {
			t.Fatalf("add %d: err=%v evicted=%v", i, err, evicted)
		}
	}
	ev, evicted, err := n.AddFilter(FilterSpec{Key: keys[4], Action: ActionDrop, Deadline: 500})
	if err != nil || !evicted {
		t.Fatalf("expected eviction, err=%v evicted=%v", err, evicted)
	}
	if ev != keys[0] {
		t.Errorf("evicted %v, want earliest-deadline %v", ev, keys[0])
	}
	// The evicted flow's packets now pass; the new filter drops its flow.
	if q := n.Receive(pkt.BuildTCP(pkt.TCPSpec{Key: keys[0], Flags: pkt.FlagACK}), 0); q < 0 {
		t.Error("evicted filter still dropping")
	}
	if q := n.Receive(pkt.BuildTCP(pkt.TCPSpec{Key: keys[4], Flags: pkt.FlagACK}), 0); q != -1 {
		t.Error("new filter not installed")
	}
}

func TestSignatureFilterCollisions(t *testing.T) {
	n := New(Config{Queues: 1, SignatureFilterCap: 16})
	k := key4("10.0.0.1", 1111, "10.0.0.2", 80)
	if _, _, err := n.AddFilter(FilterSpec{Key: k, Action: ActionDrop, Signature: true}); err != nil {
		t.Fatal(err)
	}
	// The flow itself matches via its signature.
	if q := n.Receive(pkt.BuildTCP(pkt.TCPSpec{Key: k, Flags: pkt.FlagACK}), 0); q != -1 {
		t.Error("signature filter did not match its own flow")
	}
	if _, sig := n.FilterCount(); sig != 1 {
		t.Errorf("signature count = %d", sig)
	}
	if removed := n.RemoveFilters(k, true); removed != 1 {
		t.Errorf("signature removal = %d", removed)
	}
}

func TestRSSDistribution(t *testing.T) {
	n := New(Config{Queues: 8})
	r := rand.New(rand.NewSource(77))
	counts := make([]int, 8)
	const flows = 8000
	for i := 0; i < flows; i++ {
		var a, b [4]byte
		r.Read(a[:])
		r.Read(b[:])
		k := pkt.FlowKey{
			SrcIP: netip.AddrFrom4(a), DstIP: netip.AddrFrom4(b),
			SrcPort: uint16(r.Uint32()), DstPort: uint16(r.Uint32()),
			Proto: pkt.ProtoTCP,
		}
		counts[n.QueueFor(k)]++
	}
	for q, c := range counts {
		if c < flows/8/2 || c > flows/8*2 {
			t.Errorf("queue %d got %d of %d flows — severe RSS imbalance", q, c, flows)
		}
	}
}
