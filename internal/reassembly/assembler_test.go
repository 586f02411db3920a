package reassembly

import (
	"bytes"
	"math/rand"
	"testing"
)

// collector gathers emissions for assertions.
type collector struct {
	buf   []byte
	holes int
}

func (c *collector) emit(data []byte, hole bool) {
	if hole {
		c.holes++
	}
	c.buf = append(c.buf, data...)
}

func newFast() *Assembler { return New(Config{Mode: ModeFast}) }

func TestInOrderDelivery(t *testing.T) {
	a := newFast()
	a.Init(999) // first byte at seq 1000
	var c collector
	a.Segment(1000, []byte("hello "), c.emit)
	a.Segment(1006, []byte("world"), c.emit)
	if string(c.buf) != "hello world" || c.holes != 0 {
		t.Errorf("buf=%q holes=%d", c.buf, c.holes)
	}
	if a.NextSeq() != 1011 {
		t.Errorf("NextSeq = %d", a.NextSeq())
	}
	if s := a.Stats(); s.DeliveredBytes != 11 {
		t.Errorf("stats = %+v", s)
	}
}

func TestOutOfOrderReordering(t *testing.T) {
	a := newFast()
	a.Init(0)
	var c collector
	a.Segment(6, []byte("world"), c.emit) // ooo, buffered
	if len(c.buf) != 0 {
		t.Fatalf("premature delivery %q", c.buf)
	}
	a.Segment(1, []byte("hello"), c.emit)
	if string(c.buf) != "helloworld" || c.holes != 0 {
		t.Errorf("buf=%q holes=%d", c.buf, c.holes)
	}
	if s := a.Stats(); s.OutOfOrderSegs != 1 {
		t.Errorf("OutOfOrderSegs = %d", s.OutOfOrderSegs)
	}
}

func TestRetransmissionDiscarded(t *testing.T) {
	a := newFast()
	a.Init(0)
	var c collector
	a.Segment(1, []byte("abcde"), c.emit)
	a.Segment(1, []byte("abcde"), c.emit) // full retransmit
	a.Segment(3, []byte("cdefg"), c.emit) // partial: only "fg" is new
	if string(c.buf) != "abcdefg" {
		t.Errorf("buf=%q", c.buf)
	}
	if s := a.Stats(); s.DuplicateBytes != 8 {
		t.Errorf("DuplicateBytes = %d, want 8", s.DuplicateBytes)
	}
}

func TestSequenceWraparound(t *testing.T) {
	a := newFast()
	isn := uint32(0xffffff00)
	a.Init(isn)
	var c collector
	payload := bytes.Repeat([]byte("x"), 0x200)
	a.Segment(isn+1, payload, c.emit) // crosses 2^32
	a.Segment(isn+1+0x200, []byte("tail"), c.emit)
	if len(c.buf) != 0x204 {
		t.Errorf("delivered %d bytes, want %d", len(c.buf), 0x204)
	}
	if a.NextSeq() != isn+1+0x204 {
		t.Errorf("NextSeq = %#x", a.NextSeq())
	}
}

func TestFastModeWritesThroughHole(t *testing.T) {
	a := New(Config{Mode: ModeFast, MaxBufferedBytes: 16, MaxBufferedSegments: 2})
	a.Init(0)
	var c collector
	a.Segment(1, []byte("begin-"), c.emit)
	// Lost segment at seq 7..17; later data keeps arriving until the
	// buffer budget forces a write-through.
	a.Segment(17, []byte("after1-"), c.emit)
	a.Segment(24, []byte("after2-"), c.emit)
	a.Segment(31, []byte("after3-"), c.emit)
	if c.holes == 0 {
		t.Fatal("no hole reported despite budget overflow")
	}
	if !bytes.Contains(c.buf, []byte("after1-after2-")) {
		t.Errorf("post-hole data not contiguous: %q", c.buf)
	}
	if a.Flags()&FlagHole == 0 || a.Flags()&FlagBufferOverflow == 0 {
		t.Errorf("flags = %b", a.Flags())
	}
}

func TestStrictModeNeverSkips(t *testing.T) {
	a := New(Config{Mode: ModeStrict, MaxBufferedBytes: 16, MaxBufferedSegments: 2})
	a.Init(0)
	var c collector
	a.Segment(1, []byte("begin-"), c.emit)
	a.Segment(17, []byte("after1-"), c.emit)
	a.Segment(24, []byte("after2-"), c.emit)
	a.Segment(31, []byte("after3-"), c.emit) // exceeds budget, dropped
	if c.holes != 0 {
		t.Error("strict mode reported a hole")
	}
	if string(c.buf) != "begin-" {
		t.Errorf("delivered %q beyond the hole", c.buf)
	}
	if a.Stats().DroppedSegments == 0 {
		t.Error("no segments dropped despite overflow")
	}
	a.Flush(c.emit)
	if string(c.buf) != "begin-" {
		t.Errorf("strict flush delivered data: %q", c.buf)
	}
	if a.Flags()&FlagStrictDrop == 0 {
		t.Errorf("flags = %b", a.Flags())
	}
}

func TestFastFlushDeliversWithHoles(t *testing.T) {
	a := newFast()
	a.Init(0)
	var c collector
	a.Segment(1, []byte("one"), c.emit)
	a.Segment(10, []byte("two"), c.emit)
	a.Segment(20, []byte("three"), c.emit)
	a.Flush(c.emit)
	if string(c.buf) != "onetwothree" {
		t.Errorf("buf = %q", c.buf)
	}
	if c.holes != 2 {
		t.Errorf("holes = %d, want 2", c.holes)
	}
	if a.PendingBytes() != 0 {
		t.Errorf("pending = %d after flush", a.PendingBytes())
	}
}

func TestMidStreamAnchor(t *testing.T) {
	a := newFast() // no Init: capture started mid-connection
	var c collector
	a.Segment(5000, []byte("midstream"), c.emit)
	if string(c.buf) != "midstream" {
		t.Errorf("buf = %q", c.buf)
	}
}

// TestOverlapPolicies exercises the target-based matrix on the canonical
// case: buffered old data [10,20), then a new overlapping segment in three
// geometries (starting before, at, and after the old segment's start).
func TestOverlapPolicies(t *testing.T) {
	oldData := []byte("OOOOOOOOOO") // seq 10..20, buffered (delivery point at 1)
	cases := []struct {
		name     string
		policy   Policy
		newSeq   uint32
		newData  []byte
		wantWins string // which bytes survive in the overlap region
	}{
		{"first/before", PolicyFirst, 5, []byte("NNNNNNNNNN"), "old"}, // new [5,15)
		{"last/before", PolicyLast, 5, []byte("NNNNNNNNNN"), "new"},   // new [5,15)
		{"bsd/before", PolicyBSD, 5, []byte("NNNNNNNNNN"), "new"},     // starts before -> new wins
		{"bsd/same", PolicyBSD, 10, []byte("NNNNN"), "old"},           // same start -> old wins
		{"linux/same", PolicyLinux, 10, []byte("NNNNN"), "new"},       // same start -> new wins
		{"linux/after", PolicyLinux, 12, []byte("NNNNN"), "old"},      // starts inside -> old wins
		{"windows/before", PolicyWindows, 5, []byte("NNNNNNNNNN"), "new"},
		{"solaris/cover", PolicySolaris, 8, []byte("NNNNNNNNNNNNNN"), "new"}, // [8,22) covers [10,20)
		{"solaris/partial", PolicySolaris, 12, []byte("NNNNN"), "old"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New(Config{Mode: ModeFast, Policy: tc.policy})
			a.Init(0) // delivery point 1
			var c collector
			a.Segment(10, oldData, c.emit) // buffered: hole at [1,10)
			a.Segment(tc.newSeq, tc.newData, c.emit)
			a.Segment(1, bytes.Repeat([]byte("-"), 9), c.emit) // fill [1,10), drain all
			a.Flush(c.emit)
			// Inspect the overlap region bytes in the final stream.
			lo := int(tc.newSeq)
			if lo < 10 {
				lo = 10
			}
			hi := int(tc.newSeq) + len(tc.newData)
			if hi > 20 {
				hi = 20
			}
			streamStart := 1 // seq of first byte in c.buf
			region := c.buf[lo-streamStart : hi-streamStart]
			wantByte := byte('O')
			if tc.wantWins == "new" {
				wantByte = 'N'
			}
			for i, b := range region {
				if b != wantByte {
					t.Fatalf("byte %d of overlap = %q, want %q (stream %q)", i, b, wantByte, c.buf)
				}
			}
		})
	}
}

// TestPermutationProperty: for any permutation of the segments of a stream
// (no loss), fast mode with any policy reproduces the original bytes,
// provided the buffer budget is not exceeded.
func TestPermutationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	orig := make([]byte, 4096)
	r.Read(orig)
	for trial := 0; trial < 60; trial++ {
		// Split into random segments.
		var segs []struct {
			seq  uint32
			data []byte
		}
		pos := 0
		for pos < len(orig) {
			n := 1 + r.Intn(600)
			if pos+n > len(orig) {
				n = len(orig) - pos
			}
			segs = append(segs, struct {
				seq  uint32
				data []byte
			}{uint32(pos + 1), orig[pos : pos+n]})
			pos += n
		}
		r.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		policy := Policy(r.Intn(6))
		a := New(Config{Mode: ModeFast, Policy: policy})
		a.Init(0)
		var c collector
		for _, s := range segs {
			a.Segment(s.seq, s.data, c.emit)
		}
		a.Flush(c.emit)
		if !bytes.Equal(c.buf, orig) {
			t.Fatalf("trial %d (policy %v): reassembly mismatch (%d vs %d bytes)",
				trial, policy, len(c.buf), len(orig))
		}
		if c.holes != 0 {
			t.Fatalf("trial %d: unexpected holes", trial)
		}
	}
}

// TestRetransmitWithDifferentData is the Ptacek-Newsham evasion scenario:
// two copies of the same sequence range with different content must resolve
// per policy, deterministically.
func TestRetransmitWithDifferentData(t *testing.T) {
	for _, policy := range []Policy{PolicyFirst, PolicyLast} {
		a := New(Config{Mode: ModeFast, Policy: policy})
		a.Init(0)
		var c collector
		// Hold delivery back so the conflicting copies meet in the buffer.
		a.Segment(10, []byte("ATTACK"), c.emit)
		a.Segment(10, []byte("attack"), c.emit)
		a.Segment(1, bytes.Repeat([]byte("x"), 9), c.emit)
		a.Flush(c.emit)
		got := string(c.buf[9:])
		want := "ATTACK"
		if policy == PolicyLast {
			want = "attack"
		}
		if got != want {
			t.Errorf("policy %v: got %q want %q", policy, got, want)
		}
	}
}

func TestZeroLengthSegmentIgnored(t *testing.T) {
	a := newFast()
	a.Init(0)
	var c collector
	a.Segment(1, nil, c.emit)
	a.Segment(500, []byte{}, c.emit)
	if len(c.buf) != 0 || a.PendingBytes() != 0 {
		t.Error("zero-length segment had effect")
	}
}

func TestEmitSliceNotRetained(t *testing.T) {
	// The in-order fast path emits the caller's slice; mutating the source
	// afterwards must not corrupt buffered state (nothing is retained).
	a := newFast()
	a.Init(0)
	frame := []byte("abcdef")
	var got []byte
	a.Segment(1, frame, func(d []byte, _ bool) { got = append(got, d...) })
	frame[0] = 'Z'
	if string(got) != "abcdef" {
		t.Errorf("emitted data = %q", got)
	}
	// Out-of-order data must be copied: mutate after buffering.
	ooo := []byte("OUTOFORDER")
	a.Segment(100, ooo, func(d []byte, _ bool) {})
	for i := range ooo {
		ooo[i] = '!'
	}
	var c collector
	a.Flush(c.emit)
	if !bytes.Contains(c.buf, []byte("OUTOFORDER")) {
		t.Errorf("buffered segment was not copied: %q", c.buf)
	}
}

func BenchmarkInOrderSegments(b *testing.B) {
	a := newFast()
	a.Init(0)
	data := make([]byte, 1460)
	emit := func([]byte, bool) {}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	seq := uint32(1)
	for i := 0; i < b.N; i++ {
		a.Segment(seq, data, emit)
		seq += uint32(len(data))
	}
}

func BenchmarkReorderedSegments(b *testing.B) {
	data := make([]byte, 1460)
	emit := func([]byte, bool) {}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	a := New(Config{Mode: ModeFast})
	a.Init(0)
	seq := uint32(1)
	for i := 0; i < b.N; i += 2 {
		// Swap every pair: 2nd, 1st, 4th, 3rd, ...
		a.Segment(seq+uint32(len(data)), data, emit)
		a.Segment(seq, data, emit)
		seq += 2 * uint32(len(data))
	}
}

// TestResetCarriesNothingOver poisons an assembler — strict mode, last-wins
// policy, tight buffer limits, an anchored delivery point, buffered
// overlapping segments, flags and every counter — and checks that Reset
// leaves it indistinguishable from New with the new configuration.
func TestResetCarriesNothingOver(t *testing.T) {
	a := New(Config{Mode: ModeStrict, Policy: PolicyLast, MaxBufferedBytes: 64, MaxBufferedSegments: 2})
	sink := func([]byte, bool) {}
	a.Init(100)
	a.Segment(101, []byte("in-order"), sink)
	a.Segment(101, []byte("dup"), sink)
	a.Segment(200, bytes.Repeat([]byte{'x'}, 40), sink)
	a.Segment(220, bytes.Repeat([]byte{'y'}, 40), sink)
	a.Segment(400, bytes.Repeat([]byte{'z'}, 40), sink) // over budget: dropped, flagged
	st := a.Stats()
	if a.PendingBytes() == 0 || a.Flags() == 0 || st.DeliveredBytes == 0 || st.DuplicateBytes == 0 ||
		st.OverlapNewWins == 0 || st.OutOfOrderSegs == 0 || st.DroppedSegments == 0 {
		t.Fatalf("poisoning did not take: pending %d flags %v stats %+v", a.PendingBytes(), a.Flags(), st)
	}

	cfg := Config{Mode: ModeFast, Policy: PolicyBSD}
	a.Reset(cfg)
	fresh := New(cfg)
	if a.cfg != fresh.cfg || a.next != fresh.next || a.bufn != 0 || a.flags != 0 || a.stats != (Stats{}) || len(a.segs) != 0 {
		t.Fatalf("Reset left state behind: %+v, fresh %+v", *a, *fresh)
	}
	if a.Initialized() {
		t.Fatal("Reset assembler still anchored")
	}
	// The dropped segments' storage must not stay reachable through the
	// slice's spare capacity.
	for _, s := range a.segs[:cap(a.segs)] {
		if s.data != nil {
			t.Fatal("Reset kept a buffered segment's bytes alive")
		}
	}

	// And it behaves like a fresh one: same output for the same input.
	var got, want []byte
	feed := func(x *Assembler, out *[]byte) {
		emit := func(b []byte, _ bool) { *out = append(*out, b...) }
		x.Segment(5000, []byte("hello "), emit)
		x.Segment(5012, []byte("again"), emit)
		x.Segment(5006, []byte("world "), emit)
		x.Flush(emit)
	}
	feed(a, &got)
	feed(fresh, &want)
	if !bytes.Equal(got, want) || a.Stats() != fresh.Stats() || a.Flags() != fresh.Flags() {
		t.Fatalf("recycled assembler diverges from a fresh one: %q vs %q, %+v vs %+v", got, want, a.Stats(), fresh.Stats())
	}
}
