package scap

import (
	"sync"
	"testing"
	"time"

	"scap/internal/flowtab"
	"scap/internal/trace"
)

// TestProcTimesIndexedBySlabRecord: the per-queue ProcessingTime store
// accumulates per (slab record, stream ID), restarts at zero when a record
// turns up under a new ID — with or without a creation event in between, so
// a lost one changes nothing — and grows page by page for sparse indices.
func TestProcTimesIndexedBySlabRecord(t *testing.T) {
	var p procTimes
	a := &flowtab.Info{ID: 10, Ref: 5}
	p.entry(a).cum += 3 * time.Millisecond
	p.entry(a).cum += 4 * time.Millisecond
	if got := p.entry(a).cum; got != 7*time.Millisecond {
		t.Fatalf("accumulated %v across two events, want 7ms", got)
	}
	// The record is recycled: same slab index, new stream. Its first event
	// here is a data event — the creation event was lost.
	b := &flowtab.Info{ID: 11, Ref: 5}
	if got := p.entry(b).cum; got != 0 {
		t.Fatalf("reused record starts at %v, want 0", got)
	}
	p.entry(b).cum += time.Millisecond
	// A late event of the old stream (impossible in FIFO order, but it must
	// not corrupt the new one beyond a restart).
	if got := p.entry(a).cum; got != 0 {
		t.Fatalf("stale ID read %v of another stream's time", got)
	}
	// Sparse indices: a record on the fourth page before any on the second.
	far := &flowtab.Info{ID: 12, Ref: 3<<procPageBits + 9}
	p.entry(far).cum = time.Second
	if len(p.pages) != 4 || p.pages[1] != nil || p.pages[2] != nil {
		t.Fatalf("pages materialized: %d (want 4 slots, only 0 and 3 allocated)", len(p.pages))
	}
	mid := &flowtab.Info{ID: 13, Ref: 1 << procPageBits}
	if p.entry(mid).cum != 0 || p.entry(far).cum != time.Second {
		t.Fatal("growing a middle page disturbed another page")
	}
}

// TestProcessingTimeFollowsStreamNotRecord runs flows one after another, so
// every stream after the first connection lands on a recycled slab record,
// and checks what callbacks see: zero at creation, growing across the
// stream's events (the termination callback sees the total), and never a
// previous tenant's time.
func TestProcessingTimeFollowsStreamNotRecord(t *testing.T) {
	h, _ := Create(Config{Queues: 1})
	h.SetParameter(ParamChunkSize, 512)
	type seen struct {
		ref    uint32
		times  []time.Duration
		closed bool
	}
	var mu sync.Mutex
	streams := make(map[uint64]*seen)
	note := func(sd *Stream) *seen {
		mu.Lock()
		defer mu.Unlock()
		s := streams[sd.ID()]
		if s == nil {
			s = &seen{ref: sd.info.Ref}
			streams[sd.ID()] = s
		}
		if s.ref != sd.info.Ref {
			t.Errorf("stream %d moved from slab record %d to %d", sd.ID(), s.ref, sd.info.Ref)
		}
		s.times = append(s.times, sd.ProcessingTime())
		return s
	}
	h.DispatchCreation(func(sd *Stream) {
		if pt := sd.ProcessingTime(); pt != 0 {
			t.Errorf("stream %d created on record %d with %v already on the clock", sd.ID(), sd.info.Ref, pt)
		}
		note(sd)
	})
	h.DispatchData(func(sd *Stream) {
		note(sd)
		time.Sleep(50 * time.Microsecond) // visible on any clock
	})
	h.DispatchTermination(func(sd *Stream) { note(sd).closed = true })
	runSocket(t, h, trace.NewGenerator(trace.GenConfig{
		Seed: 21, Flows: 12, Concurrency: 1, TCPFraction: 1,
		MinFlowBytes: 2048, MaxFlowBytes: 4096,
	}))
	byRef := make(map[uint32]int)
	for id, s := range streams {
		byRef[s.ref]++
		if !s.closed || len(s.times) < 3 {
			continue // a direction without data has nothing to accumulate
		}
		for i := 1; i < len(s.times); i++ {
			if s.times[i] < s.times[i-1] {
				t.Errorf("stream %d: ProcessingTime went backwards: %v", id, s.times)
			}
		}
		// Creation, n data events (≥ 50µs each), termination: the last view
		// carries at least the data callbacks that came before it.
		if total, floor := s.times[len(s.times)-1], time.Duration(len(s.times)-2)*50*time.Microsecond; total < floor {
			t.Errorf("stream %d: termination saw %v after %d data callbacks, want ≥ %v", id, total, len(s.times)-2, floor)
		}
	}
	reused := 0
	for _, n := range byRef {
		if n > 1 {
			reused++
		}
	}
	if len(streams) < 20 || reused == 0 {
		t.Fatalf("%d streams over %d slab records: the trace did not recycle any record", len(streams), len(byRef))
	}
}
